"""Seeded benchmark inputs and the dense-inverse oracle that checks outputs.

Inputs are made here with numpy alone, never with ``gpgrade synth``, so that
every commit under test receives the same bytes for the same seed.

Geometry: the five grade centres lie on a gently curved arc (30 degrees of
turn between consecutive grades, 2.0 apart) inside a random 2-d plane of the
64-d feature space, with isotropic unit noise on top. The grades overlap,
and the curve pins the RBF length-scale, so ``fit`` follows a similar path on
every seed. On a straight line the evidence has a flat ridge between
length-scale and signal variance, and the number of evidence evaluations
changed by a fifth from seed to seed.

Train and query rows come from one mixture under one seed. A share of the
query rows is pushed off the grade plane, so their posterior std is high and
the uncertainty-flip rule fires on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

D = 64
N_TRAIN = 2000
N_GRADES = 5
GRADE_STEP = 2.0
ARC_TURN_DEG = 30.0
NOISE = 1.0
OFF_MANIFOLD_SHARE = 0.1
OFF_MANIFOLD_SHIFT = 14.0

# Fixed (log length-scale, log signal variance, log noise variance) of the
# archive the screening workloads use; near what ``fit`` picks on these
# inputs at n=2000.
ARCHIVE_LOG_HP = (2.7, 0.4, -1.45)

GRADE_THRESHOLD = 1.5
STD_THRESHOLD = 0.84

# Features are rounded to this many decimals and written with exactly that
# many, so the values the program parses are the values the oracle uses.
_DECIMALS = 4


@dataclass(frozen=True)
class Rows:
    ids: list[str]
    grades: np.ndarray
    X: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, start: int, stop: int) -> "Rows":
        return Rows(self.ids[start:stop], self.grades[start:stop], self.X[start:stop])


def draw(seed: int, n_query: int) -> tuple[Rows, Rows]:
    """Train rows (N_TRAIN) and ``n_query`` query rows for one seed.

    The train rows depend on the seed only, not on ``n_query``.
    """
    geometry, train_stream, query_stream = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    basis, _ = np.linalg.qr(geometry.normal(size=(D, D)))
    turn = math.radians(ARC_TURN_DEG)
    radius = GRADE_STEP / (2.0 * math.sin(turn / 2.0))
    angles = turn * np.arange(N_GRADES)
    centres = radius * (
        np.cos(angles)[:, None] * basis[:, 0] + np.sin(angles)[:, None] * basis[:, 1]
    )

    def rows(rng, n, prefix, off_share):
        grades = rng.integers(0, N_GRADES, size=n)
        X = centres[grades] + NOISE * rng.normal(size=(n, D))
        off = rng.random(n) < off_share
        # Random unit directions orthogonal to the grade plane.
        away = rng.normal(size=(int(off.sum()), D - 2)) @ basis[:, 2:].T
        away /= np.linalg.norm(away, axis=1, keepdims=True)
        X[off] += OFF_MANIFOLD_SHIFT * away
        ids = [f"{prefix}{i:06d}" for i in range(n)]
        return Rows(ids, grades, np.round(X, _DECIMALS))

    return (
        rows(train_stream, N_TRAIN, "t", 0.0),
        rows(query_stream, n_query, "q", OFF_MANIFOLD_SHARE),
    )


def write_csv(path, rows: Rows) -> None:
    """Write rows in gpgrade's feature CSV format."""
    line = "%s,%d," + ",".join([f"%.{_DECIMALS}f"] * D) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id,grade," + ",".join(f"f{i}" for i in range(D)) + "\n")
        fh.writelines(
            line % (i, g, *x)
            for i, g, x in zip(rows.ids, rows.grades.tolist(), rows.X.tolist())
        )


def zscore_stats(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and std (population, floored at 1e-8)."""
    return X.mean(axis=0), np.maximum(X.std(axis=0), 1e-8)


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    S = (A * A).sum(1)[:, None] + (B * B).sum(1)[None, :] - 2.0 * (A @ B.T)
    return np.maximum(S, 0.0)


class Oracle:
    """Exact GP posterior from an explicit dense inverse (numpy.linalg.solve).

    Independent of gpgrade's Cholesky path; the benchmark compares the
    program's outputs against it.
    """

    def __init__(self, X, y, length_scale, signal_variance, noise_variance):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.inv_2l2 = 0.5 / length_scale**2
        self.s2 = signal_variance
        self.noise = noise_variance
        n = self.X.shape[0]
        self.S = _sq_dists(self.X, self.X)
        self.K = self.s2 * np.exp(-self.inv_2l2 * self.S)
        A = self.K + self.noise * np.eye(n)
        self.A_inv = np.linalg.solve(A, np.eye(n))
        self.alpha = self.A_inv @ self.y
        sign, logdet = np.linalg.slogdet(A)
        self.lml = (
            -0.5 * float(self.y @ self.alpha)
            - 0.5 * logdet
            - 0.5 * n * math.log(2.0 * math.pi)
            if sign > 0
            else -math.inf
        )

    def lml_gradient(self) -> np.ndarray:
        """Gradient of the evidence in (log l, log s2, log noise).

        0.5 * (alpha' dK alpha - sum(A^-1 * dK)) for each parameter.
        """
        a = self.alpha
        terms = []
        for dK in (self.K * (2.0 * self.inv_2l2 * self.S), self.K):
            terms.append(0.5 * (a @ dK @ a - np.sum(self.A_inv * dK)))
        terms.append(0.5 * self.noise * (a @ a - np.trace(self.A_inv)))
        return np.array(terms)

    def predict(self, Xq) -> tuple[np.ndarray, np.ndarray]:
        Xq = np.asarray(Xq, dtype=np.float64)
        means, stds = [], []
        for start in range(0, Xq.shape[0], 2048):
            Kq = self.s2 * np.exp(-self.inv_2l2 * _sq_dists(Xq[start : start + 2048], self.X))
            var = self.s2 + self.noise - ((Kq @ self.A_inv) * Kq).sum(1)
            means.append(Kq @ self.alpha)
            stds.append(np.sqrt(np.maximum(var, 0.0)))
        return np.concatenate(means), np.concatenate(stds)


def decide(mean, std):
    """Default-threshold referral and flip decisions as boolean arrays."""
    by_grade = mean >= GRADE_THRESHOLD
    flipped = ~by_grade & (std > STD_THRESHOLD)
    return by_grade | flipped, flipped


def roc_auc(scores, labels) -> float:
    """Rank-statistic AUC with midranks for ties."""
    labels = np.asarray(labels, dtype=bool)
    ranks = rankdata(scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def screening_quality(mean, referable, grades) -> dict[str, float]:
    """AUC of the means and sensitivity/specificity of the decisions."""
    labels = np.asarray(grades) >= 2
    referable = np.asarray(referable, dtype=bool)
    return {
        "auc": roc_auc(mean, labels),
        "sensitivity": float((referable & labels).sum() / labels.sum()),
        "specificity": float((~referable & ~labels).sum() / (~labels).sum()),
    }
