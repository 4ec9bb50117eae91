"""Minimal 16-bit PGM writer (no image library dependency)."""

from __future__ import annotations

import numpy as np

MAXVAL = 65535


def write_pgm(path, image: np.ndarray, binary: bool = False) -> None:
    """Write a 2-D array as a 16-bit PGM.

    Values are mapped linearly: negative values clip to 0 and the image
    maximum maps to 65535 (an all-nonpositive image writes as zeros). P5
    output stores big-endian 2-byte samples; P2 is plain ASCII.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("expected a 2-D image")
    top = float(img.max())
    scale = MAXVAL / top if top > 0 else 0.0
    quantized = np.rint(np.clip(img, 0.0, None) * scale).astype(np.uint16)

    if binary:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n{MAXVAL}\n".encode("ascii"))
            fh.write(quantized.astype(">u2").tobytes())
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"P2\n{img.shape[1]} {img.shape[0]}\n{MAXVAL}\n")
            np.savetxt(fh, quantized, fmt="%d")
