"""Reading symmetry out of models.

Four instruments:

- ``equivariance_error``: empirical check of f(T_g x) == T_g f(x) per element.
- ``weight_report``: per-element deviations of the relaxed weights, the
  preserved set at a threshold, closure verification, and irrep spectra.
- ``irrep_power``: isotypic (Fourier-style) decomposition of a function on
  the group, used to localize which representations a weight vector excites.
- ``gradient_symmetry_check``: verifies that at equal-weight initialization
  the gradients dL/dw(k) coincide exactly on the stabilizer of the task pair,
  against a brute-force stabilizer oracle.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import backward, loss, no_grad, tensor, zero_grads
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    ShapeError,
    SymmetryCheckFailed,
)
from .groups import (
    CharacterTable,
    FiniteGroup,
    _as_array,
    _check_spatial,
    character_table,
    closure,
    stabilizer_of_grid,
    transform_grid,
)

__all__ = [
    "EquivarianceError",
    "SymmetryReport",
    "GradientSymmetryResult",
    "equivariance_error",
    "weight_report",
    "irrep_project",
    "irrep_power",
    "gradient_symmetry_check",
    "write_report_csv",
]


# ---------------------------------------------------------------------------
# equivariance measurement


@dataclass
class EquivarianceError:
    """Per-element equivariance discrepancy of a model on one input."""

    group: FiniteGroup
    errors: np.ndarray  # (|G|,) max abs discrepancy per element
    description: str = ""

    @property
    def max_error(self) -> float:
        return float(np.max(self.errors))

    def ok(self, tol: float = 1e-10) -> bool:
        return self.max_error < tol

    def __str__(self) -> str:
        worst = int(np.argmax(self.errors))
        tail = f"; {self.description}" if self.description else ""
        return (
            f"equivariance error max {self.max_error:.3e} "
            f"(worst element {self.group.names[worst]}{tail})"
        )


def _sample(group: FiniteGroup, x) -> np.ndarray:
    """``x`` as one f64 sample [C, spatial...] with equal spatial extents."""
    a = _as_array(x).astype(np.float64, copy=False)
    if a.ndim != group.dim + 1:
        raise ShapeError(
            f"expected one sample [C] + {group.dim} spatial axes, got {a.shape}"
        )
    _check_spatial(group, a)
    return a


def equivariance_error(model, group: FiniteGroup, x, description: str = "") -> EquivarianceError:
    """Measure max |T_g^{-1} model(T_g x) - model(x)| for every g.

    ``x`` is a single sample [C, spatial...], turned about its grid centre
    on input and output alike. The identity row is exactly zero because it
    reruns the identical computation.
    """
    xb = _sample(group, x)[None]
    errs = np.zeros(group.order)
    with no_grad():
        base = model(tensor(xb)).data
        for g in range(group.order):
            yt = model(tensor(transform_grid(group, g, xb))).data
            back = transform_grid(group, int(group.inverse[g]), yt)
            errs[g] = float(np.max(np.abs(back - base)))
    return EquivarianceError(group=group, errors=errs, description=description)


# ---------------------------------------------------------------------------
# isotypic projections


def _chi_per_element(table: CharacterTable) -> np.ndarray:
    # (n_irreps, |G|) characters evaluated on each element
    chis = np.stack([ir.chi for ir in table.irreps])
    return chis[:, table.class_of]


def irrep_project(w, table: CharacterTable) -> dict[str, np.ndarray]:
    """Isotypic components of a function on the group.

    (P_rho w)(g) = (d_rho/|G|) sum_h conj(chi_rho(h)) w(h^{-1} g). The
    components are complex for complex characters but always sum back to w.
    """
    g = table.group
    v = np.asarray(w, dtype=np.complex128).ravel()
    if v.shape != (g.order,):
        raise ShapeError(f"weight vector must have length {g.order}, got {v.shape}")
    shifted = v[g.cayley[g.inverse]]  # [h, x] = w(h^{-1} x)
    chis = _chi_per_element(table)
    out = {}
    for ir, chi in zip(table.irreps, chis):
        out[ir.name] = (ir.dim / g.order) * (np.conj(chi) @ shifted)
    return out


def irrep_power(w, table: CharacterTable) -> dict[str, float]:
    """Power per irrep: ||P_rho w||^2, in table order (trivial first).

    Satisfies Parseval: the powers sum to sum_g w(g)^2.
    """
    return {
        name: float(np.sum(np.abs(comp) ** 2))
        for name, comp in irrep_project(w, table).items()
    }


# ---------------------------------------------------------------------------
# relaxed weight reports


@dataclass
class SymmetryReport:
    """What the relaxed weights say about surviving symmetry.

    ``preserved`` is the raw thresholded set {g : d(g) < tau}. It always
    contains the identity and ``preserved_is_subgroup`` records whether it
    passed the closure check as-is; ``subgroup`` is the fallback result after
    greedily dropping the worst-deviation elements until closure holds (equal
    to ``preserved`` whenever the flag is True).
    """

    group: FiniteGroup
    layer_names: list[str]
    weights: list[np.ndarray]  # per layer, [L, |H|]
    deviations: np.ndarray  # (|H|,) max over layers and banks
    tau: float
    preserved: frozenset
    preserved_is_subgroup: bool
    subgroup: frozenset
    irrep_powers: list[dict[str, float]] = field(default_factory=list)

    def names_of(self, ids) -> tuple[str, ...]:
        return tuple(self.group.names[g] for g in sorted(ids))

    @property
    def preserved_names(self) -> tuple[str, ...]:
        return self.names_of(self.preserved)

    @property
    def subgroup_names(self) -> tuple[str, ...]:
        return self.names_of(self.subgroup)

    def __str__(self) -> str:
        flag = "closed" if self.preserved_is_subgroup else "NOT closed"
        return (
            f"preserved set ({len(self.preserved)}/{self.group.order}, {flag}) "
            f"at tau={self.tau:.3e}: {','.join(self.preserved_names)}"
        )


def _relaxed_weight_layers(layers) -> list:
    picked = [ly for ly in layers if getattr(ly, "w", None) is not None]
    if not picked:
        raise ConfigError("no layers with relaxed weights were given")
    g0 = picked[0].group
    for ly in picked:
        if ly.group is not g0:
            raise ConfigError("all layers in a report must share one group")
    return picked


def weight_report(layers, tau: float | None = None) -> SymmetryReport:
    """Summarize relaxed weights across layers into a SymmetryReport.

    Deviation d(g) = max over layers and banks of |w_l(g) - w_l(e)|. The
    default threshold is tau = max(1e-6, 0.05 * max_g d(g)); raw deviations
    are always included so borderline calls can be audited. A NaN or
    infinite weight raises :class:`DataError` naming its layer and element.
    """
    picked = _relaxed_weight_layers(layers)
    group = picked[0].group
    names = [f"layer{i}_{type(ly).__name__}" for i, ly in enumerate(picked)]
    weights = [np.array(ly.w.data, dtype=np.float64) for ly in picked]
    for name, w in zip(names, weights):
        bad = np.argwhere(~np.isfinite(w))
        if len(bad):
            bank, g = (int(i) for i in bad[0])
            raise DataError(
                f"{name} has a non-finite relaxed weight {w[bank, g]} "
                f"at bank {bank}, element {group.names[g]}"
            )

    dev = np.zeros(group.order)
    for w in weights:
        dev = np.maximum(dev, np.max(np.abs(w - w[:, :1]), axis=0))
    if tau is None:
        tau = max(1e-6, 0.05 * float(dev.max()))
    preserved = frozenset(int(g) for g in range(group.order) if dev[g] < tau)

    _, is_subgroup = closure(group, preserved)
    kept = set(preserved)
    while True:
        _, ok = closure(group, kept)
        if ok:
            break
        # deviation ties broken by element id so the fallback is deterministic
        drop = max(
            (g for g in kept if g != group.identity_id),
            key=lambda g: (dev[g], g),
        )
        kept.remove(drop)

    table = character_table(group)
    powers = []
    for w in weights:
        acc = {ir.name: 0.0 for ir in table.irreps}
        for row in w:
            for name, p in irrep_power(row, table).items():
                acc[name] += p
        powers.append(acc)

    return SymmetryReport(
        group=group,
        layer_names=names,
        weights=weights,
        deviations=dev,
        tau=float(tau),
        preserved=preserved,
        preserved_is_subgroup=bool(is_subgroup),
        subgroup=frozenset(kept),
        irrep_powers=powers,
    )


def write_report_csv(report: SymmetryReport, out_dir) -> list[str]:
    """Write weights.csv, irreps.csv and summary.csv; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    g = report.group
    paths = []

    path = os.path.join(out_dir, "weights.csv")
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["layer", "l", "element_id", "element_name", "weight", "deviation"])
        for name, w in zip(report.layer_names, report.weights):
            for l in range(w.shape[0]):
                for e in range(g.order):
                    wr.writerow(
                        [
                            name,
                            l,
                            e,
                            g.names[e],
                            f"{w[l, e]:.12g}",
                            f"{abs(w[l, e] - w[l, 0]):.12g}",
                        ]
                    )
    paths.append(path)

    path = os.path.join(out_dir, "irreps.csv")
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["layer", "irrep_name", "power", "power_fraction"])
        for name, powers in zip(report.layer_names, report.irrep_powers):
            total = sum(powers.values())
            for irname, p in powers.items():
                frac = p / total if total > 0 else 0.0
                wr.writerow([name, irname, f"{p:.12g}", f"{frac:.12g}"])
    paths.append(path)

    path = os.path.join(out_dir, "summary.csv")
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["tau", "preserved", "preserved_is_subgroup", "subgroup"])
        wr.writerow(
            [
                f"{report.tau:.12g}",
                ",".join(report.preserved_names),
                report.preserved_is_subgroup,
                ",".join(report.subgroup_names),
            ]
        )
    paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# gradient symmetry at equivariant initialization


@dataclass
class GradientSymmetryResult:
    """Partition of group elements by the value of dL/dw at equal weights."""

    group: FiniteGroup
    oracle: frozenset  # Stab(X) cap Stab(Y), brute force
    identity_class: frozenset
    partitions: list  # (layer_name, l, tuple of frozensets)
    grads: list  # (layer_name, l, np.ndarray over |H|)

    def __str__(self) -> str:
        names = [self.group.names[g] for g in sorted(self.identity_class)]
        n = len(self.identity_class)
        plural = "s" if n != 1 else ""
        return f"identity gradient class ({n} element{plural}): " + ",".join(names)


def _partition_by_value(vec: np.ndarray, tol: float) -> tuple:
    order = np.argsort(vec, kind="stable")
    classes = []
    current = [int(order[0])]
    for i in range(1, len(order)):
        a, b = vec[order[i - 1]], vec[order[i]]
        if abs(b - a) <= tol:
            current.append(int(order[i]))
        else:
            classes.append(frozenset(current))
            current = [int(order[i])]
    classes.append(frozenset(current))
    return tuple(classes)


def gradient_symmetry_check(
    model, x, y, group: FiniteGroup | None = None, tol: float = 1e-10
) -> GradientSymmetryResult:
    """Check that gradient-equality classes of w match the stabilizer oracle.

    Preconditions: every relaxed weight vector is exactly constant (the
    equivariant initialization), and x, y are single samples. The loss is
    MSE. For each relaxed weight vector the elements are clustered by
    gradient value at relative tolerance ``tol``; the class containing the
    identity must equal Stab(x) cap Stab(y) computed by the brute-force grid
    oracle, for every layer and bank, or SymmetryCheckFailed is raised.
    """
    group = group if group is not None else model.group
    if group is None:
        raise ConfigError("gradient_symmetry_check needs a group model or a group")
    xa, ya = _sample(group, x), _sample(group, y)

    relaxed = [
        (f"layer{i}_{type(ly).__name__}", ly)
        for i, ly in enumerate(model.layers)
        if getattr(ly, "w", None) is not None and ly.relaxed
    ]
    if not relaxed:
        raise ConfigError("model has no trainable relaxed weights")
    for name, ly in relaxed:
        w = ly.w.data
        if not np.all(w == w[:, :1]):
            raise ContractError(
                f"{name}: relaxed weights must be exactly equal per bank "
                "(equivariant initialization) before the gradient check"
            )

    stab_x, _ = stabilizer_of_grid(group, xa)
    stab_y, _ = stabilizer_of_grid(group, ya)
    oracle = frozenset(stab_x & stab_y)

    params = model.params()
    zero_grads(params)
    out = model(tensor(xa[None]))
    backward(loss("mse", out, tensor(ya[None])), params=params)

    partitions = []
    grads = []
    identity_classes = []
    for name, ly in relaxed:
        gmat = np.array(ly.w.grad, dtype=np.float64)
        for l in range(gmat.shape[0]):
            vec = gmat[l]
            scale = float(np.max(np.abs(vec)))
            classes = _partition_by_value(vec, tol * max(scale, 1e-300))
            partitions.append((name, l, classes))
            grads.append((name, l, vec.copy()))
            for cls in classes:
                if group.identity_id in cls:
                    identity_classes.append((name, l, cls))
                    break

    for name, l, cls in identity_classes:
        if cls != oracle:
            got = ",".join(group.names[g] for g in sorted(cls))
            want = ",".join(group.names[g] for g in sorted(oracle))
            raise SymmetryCheckFailed(
                f"{name} bank {l}: identity gradient class {{{got}}} "
                f"!= oracle stabilizer {{{want}}}"
            )

    return GradientSymmetryResult(
        group=group,
        oracle=oracle,
        identity_class=oracle,
        partitions=partitions,
        grads=grads,
    )
