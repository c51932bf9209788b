"""The benchmark's workloads, their sizes, and the correctness gate.

Each workload is one closed-loop batch job through the package's public
functions.  `run` is one timed repetition; `final` is an exact check made
once per run, outside the timed region.  The gate (`checks`, `final`)
compares outputs with reference values recorded from the seed commit and
with the acceptance thresholds of the test suite.

The "full" size is what the benchmark measures; "tiny" exists so that the
self-test can drive every code path in a few seconds.
"""

from __future__ import annotations

import hashlib
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Check = tuple[str, bool]


def derive_seed(workload: str, seed: int) -> int:
    """The simulation seed the package receives, made from the run's --seed."""
    return zlib.crc32(f"{workload}:{seed}".encode())


def law_digest(support: dict) -> str:
    """sha256 of an exact law, so a reference can pin every Fraction."""
    text = "\n".join(f"{s}:{p.numerator}/{p.denominator}" for s, p in sorted(support.items()))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# exact-identities: kernels and patterns only
# ---------------------------------------------------------------------------

def run_exact(p: dict, seed: int, span=nullcontext) -> dict:
    from gtpatterns import kernels

    rep = kernels.check_intertwining(Fraction(p["q"]), p["k"], p["bound"])
    out = {"intertwining": (rep.checked, rep.max_discrepancy, len(rep.violations))}
    for q in p["desintegration_q"]:
        d = kernels.check_desintegration(Fraction(q), p["desintegration_bound"])
        out[f"desintegration[{q}]"] = (d.checked, len(d.violations))
    return out


def check_exact(p: dict, out: dict) -> list[Check]:
    checked, discrepancy, violations = out["intertwining"]
    checks = [
        ("intertwining.checked", checked == p["intertwining_checked"]),
        ("intertwining.discrepancy_zero", discrepancy == 0 and violations == 0),
    ]
    for q in p["desintegration_q"]:
        checked, violations = out[f"desintegration[{q}]"]
        checks.append((f"desintegration[{q}].checked", checked == p["desintegration_checked"]))
        checks.append((f"desintegration[{q}].violations", violations == 0))
    return checks


# ---------------------------------------------------------------------------
# markov-marginal: simulation, pointwise r_k sweep over the box, statistics
# ---------------------------------------------------------------------------

def run_markov(p: dict, seed: int, span=nullcontext) -> dict:
    from gtpatterns import experiments

    rep = experiments.experiment_markov_marginal(
        k=p["k"], horizon=p["horizon"], q=Fraction(p["q"]), n_paths=p["paths"],
        seed=seed, radius=p["radius"], threshold=p["tv_max"],
    )
    return {"tv": rep.value, "deficit": rep.truncation_deficit}


def check_markov(p: dict, out: dict) -> list[Check]:
    return [
        ("markov-marginal.tv", out["tv"] <= p["tv_max"]),
        ("markov-marginal.deficit", out["deficit"] == float(Fraction(p["deficit"]))),
    ]


def check_law(p: dict, support: dict, deficit: Fraction) -> list[Check]:
    return [
        ("n_step_law.support", len(support) == p["support_size"] and law_digest(support) == p["support_digest"]),
        ("n_step_law.deficit", deficit == Fraction(p["deficit"])),
    ]


def final_markov(p: dict) -> list[Check]:
    from gtpatterns import kernels

    law = kernels.n_step_law(Fraction(p["q"]), p["k"], p["horizon"], p["radius"])
    return check_law(p, law.support, law.tail_deficit)


# ---------------------------------------------------------------------------
# small-q: q = 1/N discrete model against the exponential-clock model
# ---------------------------------------------------------------------------

def run_small_q(p: dict, seed: int, span=nullcontext) -> dict:
    from gtpatterns import experiments

    rep = experiments.experiment_small_q(
        k=p["k"], big_n=p["big_n"], t_max=p["t_max"], n_paths_discrete=p["paths_discrete"],
        n_paths_ctmc=p["paths_ctmc"], seed=seed, threshold=p["tv_max"],
    )
    return {"tv": rep.value}


def check_small_q(p: dict, out: dict) -> list[Check]:
    return [("small-q.tv", out["tv"] <= p["tv_max"])]


# ---------------------------------------------------------------------------
# large-q: q = 1 - 1/N against the eigenvalue chain, and the density
# normalization by quadrature
# ---------------------------------------------------------------------------

def run_large_q(p: dict, seed: int, span=nullcontext) -> dict:
    from scipy.integrate import dblquad

    from gtpatterns import experiments, spectra

    rep = experiments.experiment_large_q(
        k=p["k"], big_n=p["big_n"], n_steps=p["steps"], n_samples=p["samples"],
        seed=seed, threshold=p["ks_max"],
    )
    d, x = p["density_d"], tuple(p["density_x"])
    # the quadrature belongs to the limit layer; the span makes scipy's share
    # of it spectra self time rather than unattributed time
    with span("spectra.density_quadrature"):
        total = dblquad(
            lambda y2, y1: spectra.p_d_density(d, x, (y1, y2)),
            0, p["density_hi"], 0, lambda y1: y1, epsabs=p["epsabs"], epsrel=p["epsabs"],
        )[0]
    return {"ks": rep.value, "density_total": total}


def check_large_q(p: dict, out: dict) -> list[Check]:
    return [
        ("large-q.ks", out["ks"] <= p["ks_max"]),
        ("large-q.density_total", abs(1.0 - out["density_total"]) < p["density_tol"]),
    ]


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    # what a fresh process imports before its first call; timed as setup_s
    modules: tuple[str, ...]
    run: Callable[..., dict]
    checks: Callable[[dict, dict], list[Check]]
    # items of work in one repetition: checked transitions and identities,
    # or simulated sample paths
    items: Callable[[dict], int]
    sizes: dict[str, dict]
    final: Callable[[dict], list[Check]] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-identities",
            modules=("gtpatterns.kernels",),
            run=run_exact,
            checks=check_exact,
            items=lambda p: p["intertwining_checked"] + len(p["desintegration_q"]) * p["desintegration_checked"],
            sizes={
                "full": dict(q="1/2", k=4, bound=3, intertwining_checked=5145,
                             desintegration_q=("1/3", "1/2", "2/3"), desintegration_bound=6,
                             desintegration_checked=462),
                "tiny": dict(q="1/2", k=2, bound=2, intertwining_checked=84,
                             desintegration_q=("1/2",), desintegration_bound=2,
                             desintegration_checked=38),
            },
        ),
        Workload(
            name="markov-marginal",
            modules=("gtpatterns.experiments",),
            run=run_markov,
            checks=check_markov,
            items=lambda p: p["paths"],
            final=final_markov,
            sizes={
                "full": dict(k=3, horizon=2, q="1/2", paths=100_000, radius=20, tv_max=0.02,
                             support_size=231,
                             support_digest="c57221b30cafd2bfe891635a29b367e07aa75b14fe20495aaaf6dbbd161bb642",
                             deficit="51869094519679483/166020696663385964544"),
                "tiny": dict(k=2, horizon=1, q="1/2", paths=4000, radius=8, tv_max=0.1,
                             support_size=9,
                             support_digest="1cfbf58a8fc16a9f8c5c263f501295a69b62c5360492f03c6e84fb79e471d699",
                             deficit="7/512"),
            },
        ),
        Workload(
            name="small-q",
            modules=("gtpatterns.experiments",),
            run=run_small_q,
            checks=check_small_q,
            items=lambda p: p["paths_discrete"] + p["paths_ctmc"],
            sizes={
                "full": dict(k=2, big_n=200, t_max=1.0, paths_discrete=20_000, paths_ctmc=20_000, tv_max=0.06),
                "tiny": dict(k=1, big_n=20, t_max=1.0, paths_discrete=1000, paths_ctmc=1000, tv_max=0.2),
            },
        ),
        Workload(
            name="large-q",
            modules=("gtpatterns.experiments", "gtpatterns.spectra", "scipy.integrate"),
            run=run_large_q,
            checks=check_large_q,
            items=lambda p: 2 * p["samples"],
            sizes={
                "full": dict(k=3, big_n=100, steps=2, samples=200_000, ks_max=0.05,
                             density_d=4, density_x=(1.4, 0.6), density_hi=30.0, epsabs=1.49e-8, density_tol=1e-4),
                "tiny": dict(k=2, big_n=20, steps=2, samples=2000, ks_max=0.2,
                             density_d=4, density_x=(1.4, 0.6), density_hi=12.0, epsabs=1e-3, density_tol=1e-3),
            },
        ),
    )
}
