"""A generator of bin-exact calibrated two-group datasets, declared as exact
integer counts: the input of the golden dataset cases, criterion 5's
property and the generator's own tests. No command runs it.
"""
import math

from fairaudit.domain import AuditError, BinScheme, ValidationError
from fairaudit.scenarios import Entry


def calibrated_cells(
    n_per_group: int,
    bins: int,
    base_rate_a: float,
    base_rate_b: float,
) -> tuple[BinScheme, tuple[Entry, ...]]:
    """Two-group dataset, bin-exact calibrated, with requested base rates:
    ``bins`` equal-width bins over [0, 1] and one entry per (group, bin).

    Bin j of B carries positive fraction j/(B+1) in both groups, exactly:
    each cell holds whole units of B+1 records containing j positives.
    Group bin weights follow an exponential tilt solved to match each base
    rate, so the higher-base-rate group's score distribution dominates the
    lower's in likelihood ratio. Requested base rates are hit within
    1/n_per_group.
    """
    B = bins
    d = B + 1
    if B < 2:
        raise ValidationError("need at least 2 bins")
    if n_per_group % d != 0:
        raise ValidationError(
            f"n_per_group must be a multiple of {d} for integral "
            f"bin-exact counts, got {n_per_group}"
        )
    units = n_per_group // d
    if units < B:
        raise ValidationError("n_per_group too small to populate every bin")

    scheme = BinScheme(edges=tuple(j / B for j in range(B + 1)))
    cells: list[Entry] = []
    for group, rate in (("a", base_rate_a), ("b", base_rate_b)):
        if not 0.0 < rate < 1.0:
            raise ValidationError(f"base rate {rate!r} outside (0, 1)")
        target = round(rate * n_per_group)
        weights = _tilted_weights(units, target, B)
        for j, u in enumerate(weights, start=1):
            cells.append((group, (j - 0.5) / B, j * u, (d - j) * u))
    return scheme, tuple(cells)


def _tilted_weights(units: int, positives: int, B: int) -> list[int]:
    """Integer bin weights u_1..u_B with sum ``units`` and
    sum(j * u_j) == ``positives``, every bin populated, shaped as an
    exponential tilt."""
    s_min = B * (B + 1) // 2 + (units - B)
    s_max = B * (B + 1) // 2 + (units - B) * B
    if not s_min <= positives <= s_max:
        raise ValidationError(
            f"infeasible integral counts: need {positives} positives from "
            f"{units} units over {B} bins (feasible range {s_min}..{s_max})"
        )

    mean = positives / units

    def tilt_mean(t: float) -> float:
        ws = [math.exp(t * j - t * B) for j in range(1, B + 1)]
        return sum(j * w for j, w in zip(range(1, B + 1), ws)) / sum(ws)

    lo, hi = -40.0, 40.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if tilt_mean(mid) < mean:
            lo = mid
        else:
            hi = mid
    t = (lo + hi) / 2

    raw = [math.exp(t * j - t * B) for j in range(1, B + 1)]
    scale = units / sum(raw)
    floors = [int(r * scale) for r in raw]
    remainders = [r * scale - f for r, f in zip(raw, floors)]
    for j in sorted(range(B), key=lambda j: -remainders[j]):
        if sum(floors) == units:
            break
        floors[j] += 1
    u = floors
    while sum(u) < units:  # degenerate rounding, give to the heaviest bin
        u[max(range(B), key=lambda j: u[j])] += 1
    for j in range(B):  # every bin populated
        while u[j] == 0:
            donor = max(range(B), key=lambda k: u[k])
            u[donor] -= 1
            u[j] += 1

    current = sum((j + 1) * w for j, w in enumerate(u))
    guard = 0
    while current != positives:
        guard += 1
        if guard > units * B + 10:
            raise AuditError("weight repair failed to converge")
        if current < positives:
            donors = [j for j in range(B - 1) if u[j] >= 2]
            j = max(donors, key=lambda j: u[j])
            u[j] -= 1
            u[j + 1] += 1
            current += 1
        else:
            donors = [j for j in range(1, B) if u[j] >= 2]
            j = max(donors, key=lambda j: u[j])
            u[j] -= 1
            u[j - 1] += 1
            current -= 1
    return u
