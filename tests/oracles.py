"""Brute-force reference implementations used only by the test suite.

Everything here is written as straight-line loops with no code shared with
the package, so a bug in the library cannot hide in its own oracle. The
network oracles at the end are the exception: they are the feedback
decoder and the encoder as the architecture states them, built from the
package's conv2d, add and concatenation, so that their gradients can be
compared with ``network.decode``'s and ``network.encode``'s.
"""

import math

import numpy as np


def conv2d_loops(x, w, b, pad):
    """Direct cross-correlation with zero padding, scalar loops."""
    B, Cin, H, W = x.shape
    Cout, Cin_w, kh, kw = w.shape
    assert Cin == Cin_w
    xp = np.zeros((B, Cin, H + 2 * pad, W + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + H, pad:pad + W] = x
    Ho = H + 2 * pad - kh + 1
    Wo = W + 2 * pad - kw + 1
    out = np.zeros((B, Cout, Ho, Wo), dtype=x.dtype)
    for bi in range(B):
        for o in range(Cout):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0 if b is None else float(b[o])
                    for c in range(Cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[o, c, u, v] * xp[bi, c, i + u, j + v]
                    out[bi, o, i, j] = acc
    return out


def conv2d_input_grad_loops(g, w, pad):
    """Input gradient of conv2d_loops, scattering each output gradient.

    Every g[b, o, i, j] adds g * w[o, c, u, v] into the padded input
    position (i + u, j + v) it was computed from; the padding is cropped.
    """
    B, Cout, Ho, Wo = g.shape
    Cout_w, Cin, kh, kw = w.shape
    assert Cout == Cout_w
    gxp = np.zeros((B, Cin, Ho + kh - 1, Wo + kw - 1), dtype=g.dtype)
    for bi in range(B):
        for o in range(Cout):
            for i in range(Ho):
                for j in range(Wo):
                    gv = g[bi, o, i, j]
                    for c in range(Cin):
                        for u in range(kh):
                            for v in range(kw):
                                gxp[bi, c, i + u, j + v] += gv * w[o, c, u, v]
    H = gxp.shape[2] - 2 * pad
    W = gxp.shape[3] - 2 * pad
    return gxp[:, :, pad:pad + H, pad:pad + W]


def conv2d_weight_grad_loops(x, g, kh, kw, pad):
    """Weight gradient of conv2d_loops: every g[b, o, i, j] adds
    g * xp[b, c, i + u, j + v] into w[o, c, u, v], xp the zero-padded input.
    """
    B, Cin, H, W = x.shape
    Bg, Cout, Ho, Wo = g.shape
    assert B == Bg
    xp = np.zeros((B, Cin, H + 2 * pad, W + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + H, pad:pad + W] = x
    gw = np.zeros((Cout, Cin, kh, kw), dtype=x.dtype)
    for bi in range(B):
        for o in range(Cout):
            for i in range(Ho):
                for j in range(Wo):
                    gv = g[bi, o, i, j]
                    for c in range(Cin):
                        for u in range(kh):
                            for v in range(kw):
                                gw[o, c, u, v] += gv * xp[bi, c, i + u, j + v]
    return gw


def entropy_loops(img):
    """Shannon entropy of the 8-bit histogram, counting by hand."""
    counts = [0] * 256
    n = 0
    for row in img:
        for x in row:
            level = int(math.floor(255.0 * float(x) + 0.5))
            counts[level] += 1
            n += 1
    en = 0.0
    for c in counts:
        if c > 0:
            p = c / n
            en -= p * math.log2(p)
    return en


def avg_gradient_loops(img):
    """Mean forward-difference gradient magnitude over the valid region."""
    M, N = img.shape
    total = 0.0
    for i in range(M - 1):
        for j in range(N - 1):
            dx = float(img[i, j + 1]) - float(img[i, j])
            dy = float(img[i + 1, j]) - float(img[i, j])
            total += math.sqrt((dx * dx + dy * dy) / 2.0)
    return total / ((M - 1) * (N - 1))


def psnr_loops(f, a, b):
    """Mean PSNR of the fused image against each source, peak 1.0."""
    vals = []
    for ref in (a, b):
        se = 0.0
        n = 0
        for i in range(f.shape[0]):
            for j in range(f.shape[1]):
                d = float(f[i, j]) - float(ref[i, j])
                se += d * d
                n += 1
        mse = se / n
        vals.append(math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse))
    return (vals[0] + vals[1]) / 2.0


def _gaussian_window_2d(size, sigma):
    c = (size - 1) / 2.0
    win = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            win[i, j] = math.exp(-((i - c) ** 2 + (j - c) ** 2) / (2.0 * sigma * sigma))
    return win / win.sum()


def ssim_loops(x, y, window=11, sigma=1.5, c1=0.01 ** 2, c2=0.03 ** 2):
    """Classic windowed SSIM with an explicit 2-D Gaussian, valid windows only."""
    H, W = x.shape
    win = _gaussian_window_2d(window, sigma)
    vals = []
    for i in range(H - window + 1):
        for j in range(W - window + 1):
            px = x[i:i + window, j:j + window]
            py = y[i:i + window, j:j + window]
            mx = float((win * px).sum())
            my = float((win * py).sum())
            sxx = float((win * px * px).sum()) - mx * mx
            syy = float((win * py * py).sum()) - my * my
            sxy = float((win * px * py).sum()) - mx * my
            num = (2 * mx * my + c1) * (2 * sxy + c2)
            den = (mx * mx + my * my + c1) * (sxx + syy + c2)
            vals.append(num / den)
    return sum(vals) / len(vals)


# Edge-preservation sigmoid constants from the original fusion-performance
# measure; also hard-coded in ivfuse.metrics on purpose (the test asserts the
# two agree numerically, not that they read the same constant).
_TG, _KG, _DG = 0.9994, -15.0, 0.5
_TA, _KA, _DA = 0.9879, -22.0, 0.8

_SOBEL_X = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
_SOBEL_Y = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]


def _sobel_loops(img):
    H, W = img.shape
    gmag = np.zeros((H, W))
    gang = np.zeros((H, W))
    for i in range(H):
        for j in range(W):
            sx = 0.0
            sy = 0.0
            for u in range(3):
                for v in range(3):
                    ii = i + u - 1
                    jj = j + v - 1
                    if 0 <= ii < H and 0 <= jj < W:
                        sx += _SOBEL_X[u][v] * float(img[ii, jj])
                        sy += _SOBEL_Y[u][v] * float(img[ii, jj])
            gmag[i, j] = math.sqrt(sx * sx + sy * sy)
            gang[i, j] = math.pi / 2 if sx == 0.0 else math.atan(sy / sx)
    return gmag, gang


def qabf_loops(a, b, f):
    """Edge-fidelity metric, per-pixel loops, zero-padded Sobel borders."""
    ga, aa = _sobel_loops(a)
    gb, ab = _sobel_loops(b)
    gf, af = _sobel_loops(f)
    H, W = a.shape
    num = 0.0
    den = 0.0
    for i in range(H):
        for j in range(W):
            for gs, angs in ((ga, aa), (gb, ab)):
                g_src = gs[i, j]
                g_fused = gf[i, j]
                if g_src == g_fused:
                    ratio = 0.0 if g_src == 0.0 else 1.0
                elif g_src > g_fused:
                    ratio = g_fused / g_src
                else:
                    ratio = g_src / g_fused
                align = 1.0 - abs(angs[i, j] - af[i, j]) / (math.pi / 2)
                qg = _TG / (1.0 + math.exp(_KG * (ratio - _DG)))
                qa = _TA / (1.0 + math.exp(_KA * (align - _DA)))
                num += qg * qa * g_src
                den += g_src
    return 0.0 if den == 0.0 else num / den


def decoder_pass(h, params):
    """One plain decoder pass, c2 to c5, built from the package's conv2d
    (its gradients are what the decoder tests compare against)."""
    from ivfuse.tensor import conv2d
    for name, relu in (("decoder.c2", True), ("decoder.c3", True),
                       ("decoder.c4", True), ("decoder.c5", False)):
        h = conv2d(h, params.weight(name), params.bias(name), relu=relu)
    return h


def decode_unrolled(y, params, n_iterations):
    """The feedback decoder as the architecture states it: pass 1 decodes
    ``y``, and each later pass decodes ``y + c6(out)`` with c2 run again
    on the 64-channel sum."""
    from ivfuse.tensor import conv2d
    out = decoder_pass(y, params)
    for _ in range(n_iterations - 1):
        c6 = conv2d(out, params.weight("decoder.c6"), params.bias("decoder.c6"))
        out = decoder_pass(y + c6, params)
    return out


def encode_concat(img, params):
    """The encoder with a fresh array per dense conv and a copied
    concatenation per read: rough features, the dense chain, and the 1x1
    fusion conv with the local and global skips as its addend."""
    from ivfuse.tensor import concat_channels, conv2d

    def layer(name, x, relu=True, add=None):
        return conv2d(x, params.weight(name), params.bias(name), relu=relu,
                      add=add)

    rough = layer("encoder.c1", img)
    d1 = layer("encoder.rdb.conv1", rough)
    d2 = layer("encoder.rdb.conv2", concat_channels([rough, d1]))
    d3 = layer("encoder.rdb.conv3", concat_channels([rough, d1, d2]))
    return layer("encoder.rdb.conv4", concat_channels([rough, d1, d2, d3]),
                 relu=False, add=rough * 2.0)
