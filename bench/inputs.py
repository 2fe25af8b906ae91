"""Seeded input generator for the certificate benchmark.

`write_plan(workload, seed, root)` writes every input file one workload
needs under `root` and returns the plan: the certificates to issue, each
with its CLI argv, the exit code it must return and the facts the
correctness gate and the computed counts need. The same seed always gives
byte-identical files and the same plan. Inputs are built with numpy only;
nothing here calls into schurkit, so a change to the library cannot change
what it is fed.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("kernel_cert", "sumnorm_cap", "frames")
# Runs of each certificate that every timed run makes at least; the tail
# percentile is chosen from this floor (see run._tail_percentile).
MIN_RUNS = {"kernel_cert": 5, "sumnorm_cap": 3, "frames": 9}

# Size ladders (see bench/README.md for why each size is there).
KERNEL_N = (8, 12, 16, 24)  # square n x n product spaces, n^4 kernel entries
WEIGHTED_COMPOSE_N = (8, 12)  # the 6-D submultiplicativity ratio grows as n^6
CORNER_Y1 = (4, 5, 6, 7, 8)  # (1, inf) corner on Y = a x 6: a^6 vertices
CORNER_X = (6, 6)
SUMNORM_ENUMERATED = ((5, 5), (6, 7), (7, 7), (8, 7), (8, 8))
SUMNORM_FALLBACK = ((9, 8), (12, 12), (24, 24), (64, 64))
# The two dearest enumerated sizes take 1.5-3 s a certificate; one kind each
# leaves the run time for more runs of the mid-size certificates.
SUMNORM_KINDS = {(8, 7): ("cplx",), (8, 8): ("real",)}
FRAME_N = (8, 12, 16)
COUNTEREXAMPLE_N = (8, 16, 32)
COUNTEREXAMPLE_M = 64


def _space(masses) -> dict:
    masses = [float(m) for m in masses]
    return {"points": list(range(len(masses))), "masses": masses}


def _product(m1, m2) -> dict:
    return {"factor1": _space(m1), "factor2": _space(m2)}


def _values(arr: np.ndarray) -> dict:
    if np.iscomplexobj(arr):
        return {"re": arr.real.tolist(), "im": arr.imag.tolist()}
    return {"re": arr.tolist()}


class _Writer:
    """Writes JSON files under one directory and remembers their sizes."""

    def __init__(self, root: str):
        self.root = root
        self.sizes: dict = {}
        os.makedirs(root, exist_ok=True)

    def write(self, name: str, obj) -> str:
        path = os.path.join(self.root, name)
        text = json.dumps(obj, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.sizes[path] = len(text.encode("utf-8"))
        return path


def _item(ident: str, argv: list, files: list, writer: _Writer, expect: int = 0, **facts) -> dict:
    return {
        "id": ident,
        "command": argv[0],
        "argv": argv,
        "expect": expect,
        "load_bytes": sum(writer.sizes[f] for f in files),
        **facts,
    }


def _kernel_cert(rng: np.random.Generator, w: _Writer) -> list:
    items = []

    def masses(n):
        return 0.5 + rng.random(n)

    # (1, inf) corners on nonnegative kernels whose vertex count climbs to
    # 8^6 = 262,144, just under the library's enumeration cap.
    X = _product(masses(CORNER_X[0]), masses(CORNER_X[1]))
    for a in CORNER_Y1:
        shape = (a, 6)
        path = w.write(f"corner_Y{a}x6.json", {"X": X, "Y": _product(masses(a), masses(6)),
                                               **_values(rng.random(CORNER_X + shape))})
        items.append(_item(f"schur-1inf-Y{a}x6", ["schur", "--kernel", path, "--p", "1", "--q", "inf",
                                                  "--seed", str(int(rng.integers(2**31)))],
                           [path], w, kernel=path, corner_y=list(shape), corner=True))

    for n in KERNEL_N:
        space = _product(masses(n), masses(n))
        shape = (n, n, n, n)
        nonneg = w.write(f"K{n}_nonneg.json", {"X": space, "Y": space, **_values(rng.random(shape))})
        real = w.write(f"K{n}_real.json", {"X": space, "Y": space, **_values(rng.standard_normal(shape))})
        cplx = w.write(f"K{n}_cplx.json", {"X": space, "Y": space, **_values(
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape))})
        weights = [
            w.write(f"W{n}_{tag}.json", {"X": space, "Y": space, "positive": True,
                                         **_values(np.exp(0.5 * rng.standard_normal(shape)))})
            for tag in ("a", "b", "c")[: 3 if n in WEIGHTED_COMPOSE_N else 1]
        ]

        def seeded():
            return ["--seed", str(int(rng.integers(2**31)))]

        for path, p, q, tag in ((nonneg, "1", "1", "nonneg"), (nonneg, "inf", "1", "nonneg"),
                                (real, "2", "3", "real"), (cplx, "2", "2", "cplx")):
            items.append(_item(f"schur-{p}{q}-n{n}-{tag}", ["schur", "--kernel", path, "--p", p, "--q", q, *seeded()],
                               [path], w, kernel=path, corner=tag == "nonneg"))
        if n == 16:
            # past the vertex cap: the CLI drops the exactness check silently
            items.append(_item("schur-1inf-n16", ["schur", "--kernel", nonneg, "--p", "1", "--q", "inf", *seeded()],
                               [nonneg], w, kernel=nonneg, corner_y=[n, n]))
        items.append(_item(f"norm-n{n}", ["norm", "--kernel", cplx], [cplx], w, kernel=cplx))
        items.append(_item(f"norm-n{n}-weighted", ["norm", "--kernel", nonneg, "--weight", weights[0]],
                           [nonneg, weights[0]], w, kernel=nonneg, weight=weights[0]))
        items.append(_item(f"compose-n{n}", ["compose", "--left", nonneg, "--right", real],
                           [nonneg, real], w, left=nonneg, right=real))
        if n in WEIGHTED_COMPOSE_N:
            tau, omega, sigma = weights
            items.append(_item(f"compose-n{n}-weighted",
                               ["compose", "--left", nonneg, "--right", real, "--weight-out", tau,
                                "--weight-left", omega, "--weight-right", sigma],
                               [nonneg, real, tau, omega, sigma], w, left=nonneg, right=real,
                               weights=[tau, omega, sigma], ratio_entries=n**6))
    return items


def _sumnorm_cap(rng: np.random.Generator, w: _Writer) -> list:
    items = []
    for n1, n2 in SUMNORM_ENUMERATED + SUMNORM_FALLBACK:
        for kind in SUMNORM_KINDS.get((n1, n2), ("real", "cplx")):
            space = _product(0.05 + 0.5 * rng.random(n1), 0.05 + 0.5 * rng.random(n2))
            vals = rng.standard_normal((n1, n2))
            if kind == "cplx":
                vals = vals + 1j * rng.standard_normal((n1, n2))
            path = w.write(f"F{n1}x{n2}_{kind}.json", {"space": space, **_values(vals)})
            items.append(_item(f"sumnorm-{n1}x{n2}-{kind}",
                               ["sumnorm", "--function", path, "--seed", str(int(rng.integers(2**31)))],
                               [path], w, function=path, shape=[n1, n2], trials=64))
    return items


def gabor_vectors(window: np.ndarray) -> np.ndarray:
    """Frame vectors psi[a, b, t] of the Gabor system of a window (numpy only)."""
    N = window.shape[0]
    g = window / np.linalg.norm(window)
    t = np.arange(N)
    shifts = np.stack([np.roll(g, a) for a in range(N)])
    phases = np.exp(2j * np.pi * np.outer(t, t) / N)
    return shifts[:, None, :] * phases[None, :, :] / np.sqrt(N)


def _block_covering(rng: np.random.Generator, N: int) -> dict:
    """4 x 4 blocks over the N x N index grid, each grown by 0 or 1 points."""
    b = N // 4
    patches = []
    for i in range(4):
        for j in range(4):
            gi, gj = (int(x) for x in rng.integers(0, 2, size=2))
            V = list(range(i * b, min(N, (i + 1) * b + gi)))
            W = list(range(j * b, min(N, (j + 1) * b + gj)))
            patches.append({"V": V, "W": W})
    order = rng.permutation(len(patches))
    return {"patches": [patches[k] for k in order]}


def _frames(rng: np.random.Generator, w: _Writer) -> list:
    items = []
    for N in FRAME_N:
        window = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        frame = w.write(f"gabor{N}.json", {"type": "gabor", "N": N,
                                           "window": [[float(z.real), float(z.imag)] for z in window]})
        cov = w.write(f"cov{N}.json", _block_covering(rng, N))
        psi = gabor_vectors(window)
        kpsi = np.einsum("cdt,abt->abcd", psi, psi.conj())
        space = _product(np.ones(N), np.ones(N))
        kernel = w.write(f"kpsi{N}.json", {"X": space, "Y": space, **_values(kpsi)})
        phase = w.write(f"phase{N}.json", _values(np.exp(2j * np.pi * rng.random((N, N, N, N)))))
        u = w.write(f"u{N}.json", {"space": space, **_values(1.0 + rng.random((N, N)))})
        items.append(_item(f"coorbit-N{N}", ["coorbit", "--frame", frame, "--covering", cov],
                           [frame, cov], w, expect=1, frame=frame, kernel=kernel))
        items.append(_item(f"covering-N{N}", ["covering", "--kernel", kernel, "--covering", cov],
                           [kernel, cov], w))
        items.append(_item(f"covering-N{N}-phase-u", ["covering", "--kernel", kernel, "--covering", cov,
                                                      "--phase", phase, "--u", u],
                           [kernel, cov, phase, u], w))
    for N in COUNTEREXAMPLE_N:
        items.append(_item(f"counterexample-N{N}",
                           ["counterexample", "--N", str(N), "--M", str(COUNTEREXAMPLE_M),
                            "--seed", str(int(rng.integers(2**31)))],
                           [], w, N=N, M=COUNTEREXAMPLE_M))
    return items


_BUILDERS = {"kernel_cert": _kernel_cert, "sumnorm_cap": _sumnorm_cap, "frames": _frames}


def write_plan(workload: str, seed: int, root: str) -> list:
    """Write the workload's inputs under `root`; return its certificates in timed order.

    The order is shuffled once from the seed, so every pass of the closed
    loop issues the same certificates in the same order.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    items = _BUILDERS[workload](rng, _Writer(root))
    order = rng.permutation(len(items))
    return [items[k] for k in order]


def warmup_items(plan: list) -> list:
    """The cheapest certificate of each subcommand (by input bytes, then N)."""
    best: dict = {}
    for item in plan:
        key = (item["load_bytes"], item.get("N", 0))
        if item["command"] not in best or key < best[item["command"]][0]:
            best[item["command"]] = (key, item)
    return [entry[1] for entry in best.values()]
