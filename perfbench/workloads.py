"""The benchmark's workloads: each turns a seed into a list of verdicts.

A verdict is one ``hamlab run`` of one config.  Experiments that take a
``seed`` parameter get it through the CLI's ``--seed`` override; the KdV
experiments take the drawn soliton amplitude ``kappa`` as a parameter.
The program sees only the generated configs.

Why each workload, and which per-layer metric should move which end-to-end
metric on it (``verdict_s.<experiment>`` is a per-experiment median in the
run's result.json; ``verdict_s.slowest_exp``/``fastest_exp`` report the
largest and smallest of them):

* string-canonical -- the canonical core is >90% of the time
  (symplectic_step ~84%, 1e5 calls; poisson_bracket ~12%, 276 calls).
  canonical.* moves verdict_s.string-modes and verdict_s.string-completeness
  here and verdict_s.string-completeness on cli-batch, and nothing on
  kdv-scattering.
* kdv-scattering -- schrodinger_a is ~87% (DOP853 Jost solves, one Python
  callback per right-hand side evaluation), kdv_evolve ~13%.
  kdv.schrodinger_a.*, kdv.jost.rhs_evals and kdv.bound_states.* move
  verdict_s.kdv-action-hamiltonian and verdict_s.kdv-scattering here, with
  peak_rss_mb guarding a batched sweep's memory; kdv.kdv_evolve.* moves
  ~13% of this workload.
* cli-batch -- 60 cheap verdicts where per-run costs are about half the
  time: config load plus jsonschema, runner code, the git subprocess and
  many small CSV/JSON writes.  cli.*, csvio.* and string.* move pass_s and
  the three verdict times here; line.moments and line.gseries_comparison
  move verdict_s.line-gseries.

The grid-field experiments (kdv-conservation, line-velocity-moments) are
not a workload: their seed-independent ~2.5 s passes spread more from run
to run on a shared 2-core host than the 0.25 bounds allow, and the time
budget of a full benchmark round goes to longer runs of these three.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

SEED_RANGE = 2**31


@dataclass(frozen=True)
class Verdict:
    id: str
    experiment: str
    parameters: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def config(self):
        return {"experiment": self.experiment, "parameters": self.parameters}

    def argv(self, config_path, output_dir):
        args = ["run", config_path, "--output-dir", output_dir]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        return args


def string_canonical(rng):
    return [
        Verdict("string-modes", "string-modes", seed=rng.randrange(SEED_RANGE)),
        Verdict(
            "string-completeness",
            "string-completeness",
            {"n_modes": 24},
            seed=rng.randrange(SEED_RANGE),
        ),
    ]


def kdv_scattering(rng):
    # Both experiments pass for kappa anywhere in [0.8, 1.2], but their cost
    # rises ~27% from kappa=0.85 to 1.18 (deeper well, stiffer Jost solves);
    # a narrow band keeps seed-to-seed work within the timing noise.
    kappa = rng.uniform(0.95, 1.05)
    return [
        Verdict("kdv-scattering", "kdv-scattering", {"kappa": kappa}),
        Verdict(
            "kdv-action-hamiltonian",
            "kdv-action-hamiltonian",
            {"kappa": kappa, "k_max_bound": kappa + 0.5},
        ),
    ]


def cli_batch(rng):
    # seeds are kept whatever they give: line-gseries fails its round trip
    # for some of them (a known defect, reported in the failure count)
    seeds = rng.sample(range(SEED_RANGE), 20)
    out = []
    for s in seeds:
        out.append(Verdict(f"string-hj-{s}", "string-hj", seed=s))
        out.append(Verdict(f"string-completeness-{s}", "string-completeness", seed=s))
        out.append(Verdict(f"line-gseries-{s}", "line-gseries", seed=s))
    return out


WORKLOADS = {
    "string-canonical": string_canonical,
    "kdv-scattering": kdv_scattering,
    "cli-batch": cli_batch,
}


def make(workload, seed):
    return WORKLOADS[workload](random.Random(seed))
