#!/usr/bin/env python3
"""End-to-end desk-scale run: synthesize a registered corpus, train the
reconstruction autoencoder, fuse the held-out pairs, and print the
quality report. Writes artifacts under ./demo_out. Takes about a minute
on a laptop CPU.
"""

import os


from ivfuse.checkpoint import save_checkpoint
from ivfuse.dataset import synth_corpus
from ivfuse.images import write_pgm
from ivfuse.metrics import entropy, evaluate_corpus
from ivfuse.training import TrainConfig, train

OUT = "demo_out"
os.makedirs(OUT, exist_ok=True)

corpus = synth_corpus(n_pairs=6, size=32, seed=7)
print(f"corpus: {len(corpus.train_pairs())} train / "
      f"{len(corpus.test_pairs())} test pairs")

cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=10 ** 6,
                  seed=7, max_steps=600, stop_rmse=0.03, eval_interval=25)
params, log = train(corpus, cfg)
print(f"trained {len(log.rows)} steps; final loss {log.rows[-1][2]:.4f}")

save_checkpoint(params, os.path.join(OUT, "checkpoint.hfn"))
log.save(os.path.join(OUT, "training_log.csv"))


def sink(name, fused):
    write_pgm(os.path.join(OUT, f"{name}_fused.pgm"), fused)
    pair = next(p for p in corpus.pairs if p.name == name)
    write_pgm(os.path.join(OUT, f"{name}_ir.pgm"), pair.infrared)
    write_pgm(os.path.join(OUT, f"{name}_vis.pgm"), pair.visible)
    print(f"  {name}: EN ir {entropy(pair.infrared):.3f}, "
          f"vis {entropy(pair.visible):.3f}, fused {entropy(fused):.3f}")


print("\nfusing the test split:")
report = evaluate_corpus(corpus.test_pairs(), params, cfg.feedback,
                         corpus="synthetic-demo", fused_sink=sink)
print()
print(report.table_text())
report.save(os.path.join(OUT, "report.txt"), os.path.join(OUT, "report.csv"))
print(f"artifacts in {OUT}/")
