"""Design-of-experiments: factorial grids over the flow knobs.

The paper's Table 6 is itself a (small) designed experiment — one flow
run per circuit at fixed knobs.  This module generalizes it: a
:class:`GridSpec` names factor levels over the :class:`~repro.serve.
job.JobSpec` knobs (circuit, ``seed``, ``l_g``, ``tgen_mode``,
``tgen_max_len``, ``compaction_sims``, ``static_prune``, …),
:func:`build_design` expands it into a full or even-parity
fractional factorial of :class:`DesignPoint`\\ s, and
:func:`run_campaign` drives the points — through a live campaign
server via :class:`~repro.serve.client.ServeClient`, or locally
through the same :func:`~repro.serve.worker.execute_job` core the
server uses — recording every row, phase timing and design-point
binding into a :class:`~repro.campaign.store.CampaignStore` as one
named campaign.

Grid text format (the CLI's ``--grid``), one ``factor=level[,level…]``
term per whitespace-separated token::

    circuit=s27,g208 l_g=256,512 static_prune=0,1 seed=1

Every design is deterministic: factors keep their given order, levels
keep their given order, and points are numbered in row-major
cartesian order — the same grid text always names the same campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CampaignError, ReproError
from repro.campaign.store import CampaignStore, IngestReport
from repro.serve.job import JobSpec

#: JobSpec fields a grid may vary, with their level parsers.
_BOOL_FACTORS = frozenset({"static_prune", "synthesize_hardware"})
_INT_FACTORS = frozenset(
    {
        "seed",
        "l_g",
        "tgen_max_len",
        "compaction_sims",
        "population",
        "generations",
        "priority",
    }
)
_STR_FACTORS = frozenset({"circuit", "task", "tgen_mode"})
FACTOR_NAMES = tuple(
    sorted(_BOOL_FACTORS | _INT_FACTORS | _STR_FACTORS)
)
"""Every factor name a :class:`GridSpec` accepts."""

Level = object


@dataclass(frozen=True)
class FactorSpec:
    """One factor: a JobSpec field plus its ordered levels."""

    name: str
    levels: Tuple[Level, ...]

    def __post_init__(self) -> None:
        if self.name not in FACTOR_NAMES:
            raise CampaignError(
                f"unknown factor {self.name!r}; expected one of "
                f"{', '.join(FACTOR_NAMES)}"
            )
        if not self.levels:
            raise CampaignError(f"factor {self.name!r} has no levels")
        if len(set(map(repr, self.levels))) != len(self.levels):
            raise CampaignError(
                f"factor {self.name!r} repeats a level"
            )


@dataclass(frozen=True)
class GridSpec:
    """A named factorial grid: ordered factors over the flow knobs."""

    factors: Tuple[FactorSpec, ...]
    name: str = "campaign"

    def __post_init__(self) -> None:
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise CampaignError("grid names a factor twice")
        if "circuit" not in names:
            raise CampaignError("grid must include a circuit factor")

    @property
    def size(self) -> int:
        n = 1
        for factor in self.factors:
            n *= len(factor.levels)
        return n


@dataclass(frozen=True)
class DesignPoint:
    """One cell of the design: its index and its factor assignment."""

    index: int
    factors: Mapping[str, Level] = field(default_factory=dict)

    def job_spec(self, **overrides: object) -> JobSpec:
        """The :class:`JobSpec` this point demands.

        ``overrides`` supply non-factor fields (client, priority,
        execution budget); a factor always wins over an override.
        """
        fields: Dict[str, object] = dict(overrides)
        fields.update(self.factors)
        try:
            return JobSpec(**fields)  # type: ignore[arg-type]
        except (ReproError, TypeError) as exc:
            raise CampaignError(
                f"design point {self.index} is not a valid job: {exc}"
            ) from exc


def _parse_level(name: str, text: str) -> Level:
    if name in _BOOL_FACTORS:
        lowered = text.strip().lower()
        if lowered in ("1", "true", "on", "yes"):
            return True
        if lowered in ("0", "false", "off", "no"):
            return False
        raise CampaignError(
            f"factor {name!r}: {text!r} is not a boolean level"
        )
    if name in _INT_FACTORS:
        try:
            return int(text)
        except ValueError as exc:
            raise CampaignError(
                f"factor {name!r}: {text!r} is not an integer level"
            ) from exc
    return text.strip()


def parse_grid(text: str, name: str = "campaign") -> GridSpec:
    """Parse the CLI grid syntax into a :class:`GridSpec`.

    ``"circuit=s27,g208 l_g=256,512"`` → two factors, four points.
    """
    factors: List[FactorSpec] = []
    for token in text.split():
        factor_name, sep, levels_text = token.partition("=")
        if not sep or not factor_name or not levels_text:
            raise CampaignError(
                f"malformed grid term {token!r}; expected "
                "factor=level[,level...]"
            )
        levels = tuple(
            _parse_level(factor_name, level)
            for level in levels_text.split(",")
            if level != ""
        )
        factors.append(FactorSpec(name=factor_name, levels=levels))
    if not factors:
        raise CampaignError("empty grid specification")
    return GridSpec(factors=tuple(factors), name=name)


def build_design(grid: GridSpec, fraction: int = 1) -> List[DesignPoint]:
    """Expand a grid into design points, row-major over its factors.

    ``fraction=1`` is the full factorial.  ``fraction=2`` keeps the
    even-parity half (points whose level-index sum is even) — the
    classic resolution-reducing half fraction that still touches every
    level of every factor; higher fractions keep ``sum % fraction ==
    0``.  Point indices are *design* indices (stable under
    fractionation), so a half-fraction campaign can later be filled in
    to the full design without renumbering.
    """
    if fraction < 1:
        raise CampaignError("fraction must be >= 1")
    level_indices = [range(len(f.levels)) for f in grid.factors]
    points: List[DesignPoint] = []
    for index, combo in enumerate(product(*level_indices)):
        if sum(combo) % fraction != 0:
            continue
        factors = {
            f.name: f.levels[i] for f, i in zip(grid.factors, combo)
        }
        points.append(DesignPoint(index=index, factors=factors))
    if not points:
        raise CampaignError(
            f"fraction {fraction} leaves an empty design"
        )
    return points


def _spec_config(spec: JobSpec) -> Dict[str, object]:
    """The store's config columns for one spec."""
    return {
        "seed": spec.seed,
        "l_g": spec.l_g,
        "tgen_mode": spec.tgen_mode,
        "tgen_max_len": spec.tgen_max_len,
        "compaction_sims": spec.compaction_sims,
        "static_prune": int(spec.static_prune),
        "config_fp": spec.key(),
    }


def _phase_stats(record: Mapping[str, object]) -> Dict[str, float]:
    stats = record.get("stats")
    if not isinstance(stats, Mapping):
        return {}
    return {
        str(name)[len("phase:"):]: float(value)  # type: ignore[arg-type]
        for name, value in stats.items()
        if str(name).startswith("phase:") and isinstance(value, (int, float))
    }


def _ingest_point(
    store: CampaignStore,
    campaign: str,
    point: DesignPoint,
    spec: JobSpec,
    payload: Mapping[str, object],
    record: Mapping[str, object],
    report: IngestReport,
) -> str:
    """Store one finished point; returns its run fingerprint."""
    from repro.campaign.store import payload_fingerprint

    if spec.task == "optimize":
        sub = store.ingest_optimize_payload(
            payload, source=f"campaign:{campaign}:{point.index}"
        )
        identity: Dict[str, object] = dict(payload)
    else:
        config = _spec_config(spec)
        sub = store.ingest_flow_payload(
            payload,
            source=f"campaign:{campaign}:{point.index}",
            config=config,
            timings=_phase_stats(record),
        )
        identity = {"kind": "flow", "payload": dict(payload)}
        identity["config"] = {
            k: config[k] for k in sorted(config) if k != "config_fp"
        }
    report.merge(sub)
    fingerprint = payload_fingerprint(identity)
    store.record_campaign_point(
        campaign,
        point.index,
        {str(k): v for k, v in point.factors.items()},
        job_key=spec.key(),
        fingerprint=fingerprint,
    )
    report.merge(store.ingest_job_record(record, source=f"job:{spec.key()}"))
    return fingerprint


@dataclass
class CampaignRun:
    """What one :func:`run_campaign` invocation did."""

    campaign: str
    points: int
    done: int
    failed: List[int]
    report: IngestReport

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign": self.campaign,
            "points": self.points,
            "done": self.done,
            "failed": list(self.failed),
            "ingest": self.report.to_dict(),
        }


def run_campaign(
    store: CampaignStore,
    grid: GridSpec,
    fraction: int = 1,
    server_url: Optional[str] = None,
    timeout_s: float = 600.0,
    spec_overrides: Optional[Mapping[str, object]] = None,
) -> CampaignRun:
    """Run a factorial campaign and warehouse every result.

    With ``server_url`` the points go through a live campaign server
    (submit → wait → fetch result + job record); without one they run
    in-process through :func:`~repro.serve.worker.execute_job` — the
    *same* execution core, so results are byte-identical either way.
    Failed points are recorded (by design index) but do not abort the
    rest of the campaign.
    """
    design = build_design(grid, fraction=fraction)
    overrides = dict(spec_overrides or {})
    report = IngestReport()
    failed: List[int] = []
    done = 0
    if server_url is not None:
        done, failed = _run_remote(
            store, grid.name, design, overrides, server_url, timeout_s, report
        )
    else:
        done, failed = _run_local(
            store, grid.name, design, overrides, report
        )
    return CampaignRun(
        campaign=grid.name,
        points=len(design),
        done=done,
        failed=failed,
        report=report,
    )


def _run_remote(
    store: CampaignStore,
    campaign: str,
    design: Sequence[DesignPoint],
    overrides: Mapping[str, object],
    server_url: str,
    timeout_s: float,
    report: IngestReport,
) -> Tuple[int, List[int]]:
    from repro.serve.client import ServeClient

    client = ServeClient(server_url)
    specs = [point.job_spec(**overrides) for point in design]
    for spec in specs:
        client.submit_with_backoff(spec, max_wait_s=timeout_s)
    records = client.wait_all(
        [spec.key() for spec in specs], timeout_s=timeout_s
    )
    done = 0
    failed: List[int] = []
    for point, spec in zip(design, specs):
        record = records.get(spec.key(), {})
        if record.get("state") != "done":
            failed.append(point.index)
            continue
        payload = client.result(spec.key())
        _ingest_point(
            store, campaign, point, spec, payload, record, report
        )
        done += 1
    return done, failed


def _run_local(
    store: CampaignStore,
    campaign: str,
    design: Sequence[DesignPoint],
    overrides: Mapping[str, object],
    report: IngestReport,
) -> Tuple[int, List[int]]:
    from repro.serve.scheduler import ContextPool
    from repro.serve.worker import execute_job

    pool = ContextPool(cache_dir=None, enable_cache=False)
    done = 0
    failed: List[int] = []
    try:
        for point in design:
            spec = point.job_spec(**overrides)
            runtime = pool.acquire(spec.budget())
            outcome = execute_job(spec, runtime)
            if not outcome.ok or outcome.payload is None:
                failed.append(point.index)
                continue
            record = {
                "kind": "job",
                "key": spec.key(),
                "spec": spec.to_dict(),
                "seq": point.index,
                "state": "done",
                "error": None,
                "attempts": 1,
                "stats": dict(outcome.stats),
                "owner": None,
                "version": 1,
                "lease_token": None,
            }
            _ingest_point(
                store, campaign, point, spec, outcome.payload, record, report
            )
            done += 1
    finally:
        pool.close()
    return done, failed
