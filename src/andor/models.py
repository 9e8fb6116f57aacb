"""Value-table generators: synthetic ground-truth games and a tiny net.

A ValueTable holds the 2**n masked outputs v(x_S) of one sample and is the
sole interface between any model and the rest of the toolkit.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import as_lattice, infer_n, order_counts, table_size, zeta_subsets

PROB_CLAMP = 1e-7
# Default magnitude floor as a fraction of effect_range in sample_sparse_game.
DEFAULT_FLOOR_FRACTION = 0.5


@dataclass(frozen=True)
class ValueTable:
    """Masked outputs of one sample: values[S] = v(x_S), values[0] = v(x_empty)."""

    n: int
    values: np.ndarray
    label: str = ""
    meta: str = ""

    def __post_init__(self):
        arr = as_lattice(self.values)
        if infer_n(arr) != self.n:
            raise ValueError(f"values length {len(arr)} does not match n={self.n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("value table entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def gap(self) -> float:
        """|v(x_N) - v(x_empty)|, the per-sample output span."""
        return float(abs(self.values[self.full_mask] - self.values[0]))


@dataclass
class GroundTruthGame:
    """Sparse AND/OR effects plus a bias; maps are bitmask -> effect."""

    n: int
    and_effects: dict[int, float] = field(default_factory=dict)
    or_effects: dict[int, float] = field(default_factory=dict)
    bias: float = 0.0

    def __post_init__(self):
        for kind, effects in (("and", self.and_effects), ("or", self.or_effects)):
            for mask in effects:
                if mask == 0:
                    raise ValueError(f"empty set not allowed in {kind} effects (bias holds it)")
                if mask >= table_size(self.n):
                    raise ValueError(f"mask {mask} out of range for n={self.n}")

    def support(self) -> set[tuple[str, int]]:
        return {("and", m) for m in self.and_effects} | {("or", m) for m in self.or_effects}


@dataclass(frozen=True)
class MaskingScheme:
    """Per-variable sample values and baseline replacements."""

    sample: np.ndarray
    baseline: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sample, dtype=np.float64)
        b = np.asarray(self.baseline, dtype=np.float64)
        if s.shape != b.shape or s.ndim != 1:
            raise ValueError("sample and baseline must be 1-d arrays of equal length")
        object.__setattr__(self, "sample", s)
        object.__setattr__(self, "baseline", b)

    @property
    def n(self) -> int:
        return len(self.sample)

    def masked_inputs(self) -> np.ndarray:
        """All 2**n masked inputs, row S keeps sample values on S, baseline elsewhere."""
        n = self.n
        idx = np.arange(table_size(n), dtype=np.uint32)
        keep = ((idx[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
        return keep * self.sample[None, :] + (1.0 - keep) * self.baseline[None, :]


@dataclass
class TinyNet:
    """Minimal dense feed-forward net with ReLU hidden layers and a 2-class head."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must align")
        if self.weights[-1].shape[1] != 2:
            raise ValueError("output head must produce two class scores")

    @property
    def input_width(self) -> int:
        return self.weights[0].shape[0]

    @classmethod
    def random(cls, widths, rng_seed: int = 0) -> "TinyNet":
        """Random net with layer sizes ``widths`` (input, hidden..., output=2)."""
        if widths[-1] != 2:
            raise ValueError("final width must be 2")
        rng = np.random.default_rng(rng_seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out)))
            biases.append(rng.normal(0.0, 0.1, size=fan_out))
        return cls(weights, biases)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if i < last:
                np.maximum(h, 0.0, out=h)
        return h


def interaction_function_table(t_mask: int, c: float, kind: str, n: int,
                               label: str = "") -> ValueTable:
    """Pure single-interaction table: AND fires on supersets of T, OR on
    any subset intersecting T."""
    if t_mask == 0:
        raise ValueError("T must be nonempty")
    if t_mask >= table_size(n):
        raise ValueError(f"mask {t_mask} out of range for n={n}")
    idx = np.arange(table_size(n), dtype=np.uint32)
    if kind == "and":
        values = np.where((idx & t_mask) == t_mask, float(c), 0.0)
    elif kind == "or":
        values = np.where((idx & t_mask) != 0, float(c), 0.0)
    else:
        raise ValueError(f"kind must be 'and' or 'or', got {kind!r}")
    return ValueTable(n=n, values=values, label=label,
                      meta=f"interaction_function kind={kind} mask={t_mask} c={c}")


def _masks_by_order(n: int) -> dict[int, np.ndarray]:
    orders = order_counts(n)
    return {k: np.flatnonzero(orders == k) for k in range(n + 1)}


def sample_sparse_game(n: int, m: int, order_weights, effect_range: float,
                       rng_seed: int, magnitude_floor: float | None = None,
                       kinds=("and", "or"), antichain: bool = False) -> GroundTruthGame:
    """Random sparse game: m distinct (kind, T) effects with |T| ~ order_weights.

    Effect magnitudes are uniform in [magnitude_floor, effect_range] with a
    random sign; the floor defaults to half the range. Deterministic under
    rng_seed.

    With ``antichain=True`` no chosen subset contains another (across both
    kinds). Nested or shared masks admit equal-L1 rewrites between the AND and
    OR forms (e.g. the indicator of "a and b" equals "a" + "b" minus "a or b"),
    so non-nested supports are the identifiable regime for sparse recovery.
    """
    weights = np.zeros(n + 1)
    for k, w in dict(order_weights).items():
        if not 1 <= k <= n:
            raise ValueError(f"order {k} outside 1..{n}")
        weights[k] = w
    if weights.sum() <= 0:
        raise ValueError("order weights must have positive mass")
    weights = weights / weights.sum()
    if magnitude_floor is None:
        magnitude_floor = DEFAULT_FLOOR_FRACTION * effect_range
    if not 0 < magnitude_floor <= effect_range:
        raise ValueError("need 0 < magnitude_floor <= effect_range")
    if not kinds or not set(kinds) <= {"and", "or"}:
        raise ValueError(f"kinds must be 'and' and/or 'or', got {kinds!r}")

    by_order = _masks_by_order(n)
    capacity = sum(len(set(kinds)) * len(by_order[k])
                   for k in range(1, n + 1) if weights[k] > 0)
    if m > capacity:
        raise ValueError(f"m={m} exceeds the {capacity} distinct (kind, T) slots available")

    rng = np.random.default_rng(rng_seed)
    game = GroundTruthGame(n=n)
    chosen: set[tuple[str, int]] = set()
    attempts = 0
    while len(chosen) < m:
        attempts += 1
        if attempts > 1000 * m:
            raise ValueError("could not place the requested effects; "
                             "relax m, the order weights, or antichain")
        k = int(rng.choice(n + 1, p=weights))
        mask = int(rng.choice(by_order[k]))
        kind = str(rng.choice(kinds))
        if (kind, mask) in chosen:
            continue
        if antichain and any(prev & mask in (prev, mask) for _, prev in chosen):
            continue
        chosen.add((kind, mask))
        magnitude = rng.uniform(magnitude_floor, effect_range)
        effect = float(magnitude if rng.random() < 0.5 else -magnitude)
        (game.and_effects if kind == "and" else game.or_effects)[mask] = effect
    return game


def realize_table(game: GroundTruthGame, label: str = "") -> ValueTable:
    """Exact table of a game:
    v(x_S) = bias + sum_{0 != T subset S} I_and[T] + sum_{T & S != 0} I_or[T]."""
    size = table_size(game.n)
    i_and = np.zeros(size)
    for mask, effect in game.and_effects.items():
        i_and[mask] = effect
    i_or = np.zeros(size)
    for mask, effect in game.or_effects.items():
        i_or[mask] = effect
    and_part = zeta_subsets(i_and)
    # sum over T intersecting S = total - sum over T inside the complement;
    # complement reindex is a reversal on the bitmask axis.
    or_part = i_or.sum() - zeta_subsets(i_or)[::-1]
    values = game.bias + and_part + or_part
    return ValueTable(n=game.n, values=values, label=label, meta="realized ground-truth game")


def net_value_table(net: TinyNet, scheme: MaskingScheme, class_index: int = 0,
                    label: str = "") -> ValueTable:
    """Logit confidence log(p/(1-p)) of class_index on every masked input.

    Probabilities are clamped to [PROB_CLAMP, 1-PROB_CLAMP] before the logit
    since saturated softmax outputs would diverge.
    """
    n = scheme.n
    if net.input_width != n:
        raise ValueError(f"net input width {net.input_width} != n={n}")
    scores = net.forward(scheme.masked_inputs())
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    p = exp[:, class_index] / exp.sum(axis=1)
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    values = np.log(p / (1.0 - p))
    return ValueTable(n=n, values=values, label=label, meta="tiny net logit confidence")


def inject_overfit(game: GroundTruthGame, high_order_min: int, pair_count: int,
                   magnitude: float, rng_seed: int) -> GroundTruthGame:
    """Add offsetting high-order AND pairs: each pair puts +magnitude and
    -magnitude on two distinct subsets of order >= high_order_min, leaving
    the net per-order strength balance near zero while raising the average
    order.

    Pairs use distinct subsets rather than +c/-c on one T, which would cancel
    identically and leave no ground truth to recover.
    """
    if high_order_min > game.n:
        raise ValueError(f"high_order_min={high_order_min} exceeds n={game.n}")
    by_order = _masks_by_order(game.n)
    pool = [int(m) for k in range(high_order_min, game.n + 1) for m in by_order[k]
            if int(m) not in game.and_effects]
    if len(pool) < 2 * pair_count:
        raise ValueError(
            f"need {2 * pair_count} free subsets of order >= {high_order_min}, "
            f"only {len(pool)} available")

    rng = np.random.default_rng(rng_seed)
    picks = rng.choice(len(pool), size=2 * pair_count, replace=False)
    new_effects = dict(game.and_effects)
    for j in range(pair_count):
        new_effects[pool[picks[2 * j]]] = float(magnitude)
        new_effects[pool[picks[2 * j + 1]]] = float(-magnitude)
    return replace(game, and_effects=new_effects, or_effects=dict(game.or_effects))
