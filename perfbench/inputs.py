"""Seeded input generation for the three benchmark workloads.

Everything here uses numpy only: the library receives the generated text
files (VI1/BASIS1) or arrays, never anything built by its own generator.
Inputs for a (workload, seed) pair are written once under the cache
directory and reused by later runs with the same seed.
"""
from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

WORKLOADS = ("paper_sweep", "large_dense", "polyhedral_ipm")
# instance i belongs to class i % CLASSES[workload]: (k, basis kind) for the
# sweep, one class per operator for large_dense, with/without equality rows
# for the polyhedral set
CLASSES = {"paper_sweep": 6, "large_dense": 2, "polyhedral_ipm": 2}

# paper_sweep: the shape of the paper's table
SWEEP_N = 40
SWEEP_KS = (4, 8, 16)
SWEEP_PER_SECOND = 30  # pool size per measured second; well above the achieved rate

# large_dense: both operators are fixed per workload; the seed draws q and the basis
DENSE_K = 10
DENSE_INSTANCES = (("potential", 2500), ("skew_saddle", 3000))

# polyhedral_ipm
POLY_N = 200
POLY_M = 200
POLY_EQ = 20  # equality rows on odd-numbered instances
POLY_PER_SECOND = 2


def _rng(*key) -> np.random.Generator:
    words = [int.from_bytes(str(k).encode(), "little") % (2**63) for k in key]
    return np.random.default_rng(np.random.SeedSequence(words))


def _rows(mat: np.ndarray) -> str:
    """Rows of shortest round-trip float reprs, so parsing is exact."""
    return "".join(" ".join(map(repr, row)) + "\n" for row in np.atleast_2d(mat).tolist())


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# -- paper_sweep ---------------------------------------------------------------

def sweep_instance(seed: int, i: int):
    """Strongly monotone M = I + 0.6 A + 0.5 S (||A|| = ||S|| = 1), q, raw basis.

    Even instances get a Gaussian basis, odd ones a 0/1 aggregation basis
    whose columns are the indicators of a random partition into k groups.
    """
    n, k = SWEEP_N, SWEEP_KS[(i // 2) % 3]
    rng = _rng("paper_sweep", seed, i)
    G = rng.standard_normal((n, n))
    A = G.T @ G
    A /= np.linalg.eigvalsh(A)[-1]
    K = rng.standard_normal((n, n))
    S = 0.5 * (K - K.T)
    S /= np.linalg.norm(S, 2)
    M = np.eye(n) + 0.6 * A + 0.5 * S
    q = rng.standard_normal(n)
    if i % 2 == 0:
        raw = rng.standard_normal((n, k))
    else:
        groups = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(groups)
        raw = np.zeros((n, k))
        raw[np.arange(n), groups] = 1.0
    return M, q, raw


def _prepare_sweep(d: Path, seed: int, seconds: float) -> dict:
    count = int(SWEEP_PER_SECOND * seconds) + 60  # at least the minimum of 8 rounds
    for i in range(count):
        M, q, raw = sweep_instance(seed, i)
        (d / f"p{i}.vi1").write_text(f"VI1 {SWEEP_N} nn:{SWEEP_N}\n" + _rows(M) + _rows(q))
        (d / f"b{i}.basis").write_text(f"BASIS1 {SWEEP_N} {raw.shape[1]}\n" + _rows(raw))
    return {"instances": [{"problem": f"p{i}.vi1", "basis": f"b{i}.basis"} for i in range(count)]}


# -- large_dense ---------------------------------------------------------------

def dense_operator(kind: str, n: int) -> np.ndarray:
    if kind == "potential":
        # symmetric part 0.5 I + 0.25 G^T G / n dominates a small skew part;
        # the square Wishart spectrum crowds the bottom eigenvalue
        rng = _rng("large_dense", kind)
        G = rng.standard_normal((n, n)) / np.sqrt(n)
        K = rng.standard_normal((n, n))
        return 0.5 * np.eye(n) + 0.25 * (G.T @ G) + (0.05 / np.sqrt(n)) * (K - K.T)
    # I + c S with S = (G - G^T)/2 scaled to ||S||_F = 2: a bilinear saddle-type
    # operator whose top singular values of M are tightly clustered
    rng = np.random.default_rng(0)
    G = rng.standard_normal((n, n))
    S = 0.5 * (G - G.T)
    return np.eye(n) + (2.0 / float(np.linalg.norm(S))) * S


def _operator_cache(cache: Path, kind: str, n: int) -> Path:
    """M rows as text plus M as .npy, formatted once per cache directory."""
    d = cache / "large_dense" / "operators"
    d.mkdir(parents=True, exist_ok=True)
    txt, npy = d / f"{kind}-{n}.rows", d / f"{kind}-{n}.npy"
    if not (txt.is_file() and npy.is_file()):
        M = dense_operator(kind, n)
        np.save(npy.with_name(npy.name + ".tmp.npy"), M)
        os.replace(npy.with_name(npy.name + ".tmp.npy"), npy)
        _atomic_write(txt, _rows(M))
    return npy


def dense_rhs(seed: int, kind: str, n: int):
    rng = _rng("large_dense", seed, kind)
    return rng.standard_normal(n), rng.standard_normal((n, DENSE_K))


def _prepare_dense(d: Path, seed: int, cache: Path) -> dict:
    out = []
    for kind, n in DENSE_INSTANCES:
        npy = _operator_cache(cache, kind, n)
        q, raw = dense_rhs(seed, kind, n)
        with open(d / f"{kind}.vi1.tmp", "w") as f:
            f.write(f"VI1 {n} nn:{n}\n")
            with open(npy.with_suffix(".rows")) as rows:
                shutil.copyfileobj(rows, f, 1 << 22)
            f.write(_rows(q))
        os.replace(d / f"{kind}.vi1.tmp", d / f"{kind}.vi1")
        (d / f"{kind}.basis").write_text(f"BASIS1 {n} {DENSE_K}\n" + _rows(raw))
        out.append({"problem": f"{kind}.vi1", "basis": f"{kind}.basis",
                    "kind": kind, "matrix": npy.name})
    return {"instances": out}


# -- polyhedral_ipm ------------------------------------------------------------

def poly_instance(seed: int, i: int) -> dict:
    """VI(Mx + q, {Ax + b >= 0}) with M monotone of rank n/2 plus skew.

    A KKT point (x*, lambda*) with half the rows active is planted, so a
    solution exists although M is not strongly monotone. Odd instances add
    POLY_EQ equality rows E x = e that x* satisfies.
    """
    n, m = POLY_N, POLY_M
    rng = _rng("polyhedral_ipm", seed, i)
    R = rng.standard_normal((n, n // 2)) / np.sqrt(n)
    K = rng.standard_normal((n, n)) / np.sqrt(n)
    M = R @ R.T + 0.5 * (K - K.T)
    A = rng.standard_normal((m, n)) / np.sqrt(n)
    x_star = rng.standard_normal(n)
    active = rng.random(m) < 0.5
    slack = np.where(active, 0.0, rng.uniform(0.1, 1.0, m))
    lam = np.where(active, rng.uniform(0.1, 1.0, m), 0.0)
    b = slack - A @ x_star
    grad = A.T @ lam
    inst = {"M": M, "A": A, "b": b}
    if i % 2 == 1:
        E = rng.standard_normal((POLY_EQ, n)) / np.sqrt(n)
        nu = rng.standard_normal(POLY_EQ)
        inst["E"], inst["e"] = E, E @ x_star
        grad = grad + E.T @ nu
    inst["q"] = grad - M @ x_star
    return inst


def _prepare_poly(d: Path, seed: int, seconds: float) -> dict:
    count = int(POLY_PER_SECOND * seconds) + 20  # at least the minimum of 8 rounds
    for i in range(count):
        np.savez(d / f"poly{i}.npz", **poly_instance(seed, i))
    return {"instances": [{"arrays": f"poly{i}.npz"} for i in range(count)]}


def prepare(workload: str, seed: int, seconds: float, cache: Path) -> tuple[Path, dict]:
    """Write (or reuse) the inputs of one workload seed; return (dir, manifest).

    Only the latest seed of each workload is kept on disk.
    """
    base = cache / workload
    base.mkdir(parents=True, exist_ok=True)
    for old in base.glob("seed-*"):
        if old.name != f"seed-{seed}":
            shutil.rmtree(old, ignore_errors=True)
    d = base / f"seed-{seed}"
    manifest_path = d / "manifest.json"  # written last: it marks complete inputs
    if manifest_path.is_file():
        manifest = json.loads(manifest_path.read_text())
        if manifest["seconds"] >= seconds:
            return d, manifest
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir()
    if workload == "paper_sweep":
        manifest = _prepare_sweep(d, seed, seconds)
    elif workload == "large_dense":
        manifest = _prepare_dense(d, seed, cache)
    else:
        manifest = _prepare_poly(d, seed, seconds)
    manifest.update(workload=workload, seed=seed, seconds=seconds)
    manifest_path.write_text(json.dumps(manifest))
    return d, manifest
