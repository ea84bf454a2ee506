"""Infrared/visible image fusion at desk scale.

A small reverse-mode autodiff core (tensor), the fusion architecture
(network), the composite reconstruction loss (losses), training
(training, dataset), fusion quality metrics (metrics), gradient
verification (gradcheck), and a CLI (cli).
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import ImagePair, PairDataset, load_dataset, synth_corpus
from .errors import (CheckpointFormatError, CheckpointSchemaError,
                     ConfigError, DivergenceError, DomainError,
                     IngestionError, ShapeError)
from .gradcheck import run_gradient_checks
from .losses import (LossConfig, avg_gradient, composite_loss_parts,
                     pixel_loss, ssim, ssim_loss)
from .metrics import (MetricReport, MetricRow, entropy, evaluate_corpus,
                      measure_triple, psnr, qabf, ssim_metric)
from .network import (FeedbackConfig, ModelParams, PreFusionConfig, decode,
                      encode, fuse_add, fuse_images, init_params, pre_fuse,
                      reconstruct)
from .tensor import (Tensor, backward, concat_channels, conv2d,
                     finite_diff_gradient, narrow)
from .training import Adam, SGD, TrainConfig, TrainingLog, train

__version__ = "0.1.0"
