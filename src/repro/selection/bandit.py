"""Online algorithm selection: a per-key bandit over live traffic.

The paper's Sec. 4.2 asks for "heuristics ... to choose the best
convolution method for each API invocation".  :mod:`repro.selection.
heuristic` answers statically (roofline argmin, closed-form rules); this
module closes the loop against *measured* traffic: one
:class:`SelectionBandit` holds, per coalescing family (shape x dtype x
backend — the :class:`~repro.serve.coalescer.CoalesceKey` minus the
tensor identities and the requested algorithm), one arm per executable
algorithm and converges to the measured-fastest arm.

Design rules, in order of importance:

1. **The served result is never produced by an experiment.**  Exploration
   runs as a *shadow*: the primary arm's output is what the caller gets,
   bit-for-bit, whether or not a shadow ran.  The shadow executes through
   the guard chain (:func:`repro.guard.chain.guarded_conv2d`) under its
   own breaker scope, its output is parity-checked against the primary,
   and only then is its timing credited.  A shadow that raises, diverges,
   or corrupts its output costs a counter and (after
   :data:`MAX_PARITY_FAILURES`) poisons its arm — nothing else.
2. **Warm-started, then measured.**  Arms open with the roofline model's
   prediction (:func:`repro.perfmodel.timing.prior_ms`) as
   :data:`PRIOR_WEIGHT` pseudo-observations; real timings take over as
   they accumulate.  The prior is kept in measured units through a
   per-key calibration scale (measured-ms over modeled-ms across
   observed arms), so the blend is dimensionally honest.
3. **Deterministic.**  Tie-breaks follow the arm order (requested arm
   first, then :data:`~repro.baselines.registry.FALLBACK_ORDER`), and the
   exploration schedule is a counting rule — ``explored <
   floor(explore_fraction * decisions)`` — not a coin flip, so a seeded
   replay reproduces exactly (the CI ``selection-drill`` depends on it).

Cluster replicas record their arm timings as registry counters
(``selection.arm_obs`` / ``selection.arm_ms``, tagged by key digest and
algorithm); the stats pipe ships them to the router like every other
counter, and :meth:`SelectionBandit.ingest_replica_rows` folds the
``proc``-tagged deltas into the router's table.

Learned tables persist as schema-versioned JSON at ``table_path``
(``REPRO_SELECTION_TABLE``) — content-checksummed like the spectrum
caches: a corrupt file is discarded (``selection.table_corrupt``), a
foreign schema version is rejected loudly (:class:`SelectionTableError`).
``repro tune`` fills the same table offline (:meth:`SelectionBandit.tune`).
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.observe.registry import counters
from repro.utils.shapes import canonical_axes, canonical_params

#: Persisted-table schema.  Bump on any layout change; loaders reject
#: other versions loudly instead of guessing.
TABLE_SCHEMA_VERSION = 1

#: Environment knobs: activation mode and table location.
ENABLE_ENV = "REPRO_SELECTION_BANDIT"
TABLE_ENV = "REPRO_SELECTION_TABLE"
EXPLORE_ENV = "REPRO_SELECTION_EXPLORE"

#: Pseudo-observations the roofline prior counts for in a posterior.
PRIOR_WEIGHT = 2.0

#: Shadow parity tolerance against the served output (``atol`` scales
#: with the served output's largest magnitude).
PARITY_RTOL = 1e-4
PARITY_ATOL = 1e-7

#: Shadow failures (raise or parity) that poison an arm for good.
MAX_PARITY_FAILURES = 1

#: Posterior penalty for arms the roofline model cannot price (naive):
#: they start at ``worst modeled prior x this`` so they are explored
#: last and chosen only on measurement.
UNMODELED_PENALTY = 10.0


class SelectionTableError(RuntimeError):
    """A persisted selection table with an unknown schema version."""


@dataclass
class BanditConfig:
    """Knobs of one :class:`SelectionBandit`.

    ``apply=False`` is shadow-only mode: the bandit observes, explores
    and learns, but the served algorithm stays whatever the caller
    requested — the mode the side-effect-freeness drill runs in.
    """

    explore_fraction: float = 0.1
    min_obs: int = 3
    apply: bool = True
    table_path: str | None = None

    @classmethod
    def from_env(cls) -> "BanditConfig":
        """Config from ``REPRO_SELECTION_*`` (see :func:`active_bandit`)."""
        mode = os.environ.get(ENABLE_ENV, "")
        kwargs: dict = {"apply": mode.strip().lower() != "shadow"}
        table = os.environ.get(TABLE_ENV)
        if table:
            kwargs["table_path"] = table
        fraction = os.environ.get(EXPLORE_ENV)
        if fraction:
            try:
                kwargs["explore_fraction"] = float(fraction)
            except ValueError:
                pass
        return cls(**kwargs)


@dataclass
class ArmState:
    """One algorithm's running statistics under one key.

    ``ms_total`` accumulates *per-row* milliseconds (wall clock divided
    by the batch rows of each observation) so observations at different
    batch sizes of the same coalescing family — the key excludes ``n`` —
    average into one comparable quantity.
    """

    algorithm: str
    prior_ms: float | None = None
    obs: int = 0
    ms_total: float = 0.0
    parity_failures: int = 0
    poisoned: bool = False

    @property
    def mean_ms(self) -> float | None:
        return self.ms_total / self.obs if self.obs else None

    def posterior_ms(self, scale: float, prior_weight: float,
                     fallback_prior: float) -> float:
        """Blended cost estimate: prior as pseudo-observations.

        ``(prior_weight * prior * scale + ms_total) / (prior_weight + obs)``
        — with *fallback_prior* standing in for unmodeled arms (already
        penalty-scaled by the caller).
        """
        prior = self.prior_ms if self.prior_ms is not None else fallback_prior
        if self.obs == 0:
            return prior * scale
        return ((prior_weight * prior * scale + self.ms_total)
                / (prior_weight + self.obs))


class Decision(NamedTuple):
    """One routing decision: what to serve, what (if anything) to shadow."""

    algorithm: str
    shadow: str | None
    source: str  # "measured" | "prior" | "requested"


@dataclass
class KeyState:
    """Everything the bandit knows about one coalescing family."""

    digest: str
    arms: dict[str, ArmState] = field(default_factory=dict)
    order: tuple[str, ...] = ()
    decisions: int = 0
    explored: int = 0

    def scale(self) -> float:
        """Measured-over-modeled calibration from the observed arms."""
        num = sum(a.ms_total for a in self.arms.values()
                  if a.obs and a.prior_ms)
        den = sum(a.prior_ms * a.obs for a in self.arms.values()
                  if a.obs and a.prior_ms)
        return num / den if den else 1.0

    def fallback_prior(self) -> float:
        """Stand-in prior for unmodeled arms (worst modeled x penalty)."""
        modeled = [a.prior_ms for a in self.arms.values()
                   if a.prior_ms is not None]
        return (max(modeled) if modeled else 1.0) * UNMODELED_PENALTY

    def arm(self, algorithm: str) -> ArmState:
        """The key's arm for *algorithm*, created on first use."""
        arm = self.arms.get(algorithm)
        if arm is None:
            arm = self.arms[algorithm] = ArmState(algorithm)
        return arm

    def listed(self) -> list[ArmState]:
        """The arms in arm order (by name while the key has no order)."""
        names = self.order or tuple(sorted(self.arms))
        return [self.arms[name] for name in names if name in self.arms]

    def best_arm(self) -> ArmState | None:
        """The posterior argmin over the live listed arms; ties break on
        arm order.  ``None`` when every arm is poisoned."""
        scale = self.scale()
        fallback = self.fallback_prior()
        return min((a for a in self.listed() if not a.poisoned),
                   key=lambda a: a.posterior_ms(scale, PRIOR_WEIGHT,
                                                fallback),
                   default=None)

    def converged(self, min_obs: int) -> bool:
        live = [a for a in self.listed() if not a.poisoned]
        return bool(live) and all(a.obs >= min_obs for a in live)


def key_digest(*, op: str, input_chw: tuple, weight_shape: tuple,
               dtype: str, padding, stride, dilation, groups: int,
               strategy: str, backend: str | None,
               output_padding=0) -> str:
    """Canonical string identity of one coalescing family.

    The :class:`~repro.serve.coalescer.CoalesceKey` minus the tensor
    identities (the bandit learns per *problem*, not per weight array)
    and minus the requested algorithm (that is what the bandit decides).
    Parameters are spelled by :func:`repro.utils.shapes.canonical_params`
    at the rank *input_chw* implies, as in the coalescer's key, so a
    direct ``execute_conv`` call and a served request over the same
    geometry land on the same table entry.  Used verbatim as the JSON
    table key and the ``key`` counter tag.
    """
    ndim = len(input_chw) - 1
    padding, stride, dilation = canonical_params(padding, stride, dilation,
                                                 ndim)
    return "|".join((
        op,
        "chw=" + "x".join(str(d) for d in input_chw),
        "w=" + "x".join(str(d) for d in weight_shape),
        f"dt={dtype}",
        f"p={padding}",
        f"s={stride}",
        f"d={dilation}",
        f"g={groups}",
        f"st={strategy}",
        f"be={backend}",
        f"op={canonical_axes(output_padding, ndim, 'output_padding')}",
    ))


def _conv2d_digest(x: np.ndarray, weight: np.ndarray, **params) -> str:
    """The key of a conv2d of *x* and *weight* (see :func:`key_digest`)."""
    return key_digest(op="conv2d", input_chw=tuple(x.shape[1:]),
                      weight_shape=tuple(weight.shape), dtype=str(x.dtype),
                      **params)


class SelectionBandit:
    """Per-key contextual bandit over the executable algorithm arms."""

    def __init__(self, config: BanditConfig | None = None):
        self.config = config or BanditConfig()
        self._lock = threading.Lock()
        self._keys: dict[str, KeyState] = {}
        #: Last-ingested cumulative (obs, ms) per (proc, digest, arm) —
        #: see :meth:`ingest_replica_rows`.
        self._ingested: dict[tuple, tuple[float, float]] = {}

    # -- arm construction ----------------------------------------------------

    def _state(self, digest: str) -> KeyState:
        """The key's state, created on first use (caller holds the lock)."""
        state = self._keys.get(digest)
        if state is None:
            state = self._keys[digest] = KeyState(digest)
        return state

    def _seed_key(self, digest: str, shape, requested: str) -> KeyState:
        """Create (or complete) the key's arms from chain + priors."""
        from repro.baselines.registry import fallback_chain

        state = self._state(digest)
        if not state.order:
            _set_order(state, shape, fallback_chain(shape,
                                                    primary=requested))
        return state

    # -- decisions -----------------------------------------------------------

    def decide(self, digest: str, shape, requested: str) -> Decision:
        """Pick the served arm and (budget permitting) a shadow arm.

        Deterministic: cost ties break on arm order, the exploration
        schedule is the counting rule described in the module docstring,
        and the least-observed unconverged arm is always the next shadow.
        """
        cfg = self.config
        with self._lock:
            state = self._seed_key(digest, shape, requested)
            state.decisions += 1
            best = state.best_arm()
            if best is None:
                counters.add("selection.decisions", source="requested")
                return Decision(requested, None, "requested")
            source = "measured" if best.obs else "prior"
            primary = best.algorithm if cfg.apply else requested
            shadow = None
            pending = [a for a in state.listed() if not a.poisoned
                       and a.obs < cfg.min_obs and a.algorithm != primary]
            if pending and state.explored < int(cfg.explore_fraction
                                                * state.decisions):
                shadow = min(pending, key=lambda a: a.obs).algorithm
                state.explored += 1
        counters.add("selection.decisions", source=source)
        if cfg.apply and primary != requested:
            counters.add("selection.applied", algorithm=primary)
        if shadow is not None:
            counters.add("selection.explore", algorithm=shadow)
        return Decision(primary, shadow, source)

    # -- observations --------------------------------------------------------

    def record(self, digest: str, algorithm: str, ms: float,
               rows: int = 1, shadow: bool = False) -> None:
        """Credit one timing observation (wall *ms* over *rows* rows)."""
        per_row = ms / max(1, rows)
        with self._lock:
            arm = self._state(digest).arm(algorithm)
            arm.obs += 1
            arm.ms_total += per_row
        counters.add("selection.arm_obs", 1, key=digest,
                     algorithm=algorithm)
        counters.add("selection.arm_ms", per_row, key=digest,
                     algorithm=algorithm)
        if shadow:
            counters.add("selection.shadow_ok", algorithm=algorithm)

    def record_shadow_failure(self, digest: str, algorithm: str,
                              cause: str) -> None:
        """A shadow raised or failed parity: penalize, never propagate."""
        counters.add(f"selection.shadow_{cause}", algorithm=algorithm)
        with self._lock:
            state = self._keys.get(digest)
            arm = state.arms.get(algorithm) if state else None
            if arm is None:
                return
            arm.parity_failures += 1
            if arm.parity_failures >= MAX_PARITY_FAILURES \
                    and not arm.poisoned:
                arm.poisoned = True
                counters.add("selection.arm_poisoned",
                             algorithm=algorithm)

    def tune(self, shape, repeats: int = 3) -> str:
        """Measure every capable arm but naive on *shape* (``repro tune``).

        Each arm runs once as a warm-up, then *repeats* timed
        :func:`~repro.baselines.registry.convolve` calls with the shape's
        full padding, stride, dilation and groups.  Every timed call is
        recorded under the key a served float64 conv2d of this geometry
        gets (default strategy, default backend), whose arm order becomes
        the tuned arms.  Returns that key's digest.
        """
        from repro.baselines.registry import (
            ConvAlgorithm, convolve, list_algorithms, supports,
        )
        from repro.utils.random import random_problem

        if repeats < 1 or shape.ndim != 2:
            raise ValueError("tune takes a conv2d shape and repeats >= 1")
        arms = [a for a in list_algorithms()
                if a is not ConvAlgorithm.NAIVE and supports(a, shape)]
        x, weight = random_problem(shape)
        params = dict(padding=shape.padding, stride=shape.stride,
                      dilation=shape.dilation, groups=shape.groups)
        digest = _conv2d_digest(x, weight, strategy="sum", backend=None,
                                **params)
        with self._lock:
            _set_order(self._state(digest), shape, arms)
        for algo in arms:
            convolve(x, weight, algorithm=algo, **params)
            for _ in range(repeats):
                start = time.perf_counter()
                convolve(x, weight, algorithm=algo, **params)
                self.record(digest, algo.value,
                            (time.perf_counter() - start) * 1e3,
                            rows=shape.n)
        return digest

    # -- introspection -------------------------------------------------------

    def best(self, digest: str) -> str | None:
        """Current posterior-best arm of one key (None if unknown)."""
        with self._lock:
            state = self._keys.get(digest)
            best = state.best_arm() if state is not None else None
        return best.algorithm if best is not None else None

    def converged(self, digest: str) -> bool:
        with self._lock:
            state = self._keys.get(digest)
            return state is not None \
                and state.converged(self.config.min_obs)

    def stats(self) -> dict:
        """Snapshot for ``repro selection-stats`` and server stats."""
        cfg = self.config
        with self._lock:
            keys = []
            for digest in sorted(self._keys):
                state = self._keys[digest]
                scale = state.scale()
                fallback = state.fallback_prior()
                best = state.best_arm()
                keys.append({
                    "key": digest,
                    "decisions": state.decisions,
                    "explored": state.explored,
                    "converged": state.converged(cfg.min_obs),
                    "best": best.algorithm if best else None,
                    "arms": [{
                        "algorithm": arm.algorithm,
                        "prior_ms": arm.prior_ms,
                        "obs": arm.obs,
                        "mean_ms": arm.mean_ms,
                        "posterior_ms": arm.posterior_ms(
                            scale, PRIOR_WEIGHT, fallback),
                        "poisoned": arm.poisoned,
                    } for arm in state.listed()],
                })
        return {
            "keys": keys,
            "decisions": sum(k["decisions"] for k in keys),
            "explored": sum(k["explored"] for k in keys),
            "converged_keys": sum(1 for k in keys if k["converged"]),
            "apply": cfg.apply,
            "explore_fraction": cfg.explore_fraction,
        }

    # -- cluster merge -------------------------------------------------------

    def ingest_replica_rows(self) -> int:
        """Fold replica arm timings merged into the registry into the table.

        Cluster workers record ``selection.arm_obs`` / ``selection.arm_ms``
        locally; the router's ``refresh_worker_stats`` merges their counter
        snapshots with a ``proc`` tag (see
        :meth:`repro.observe.registry.CounterRegistry.merge_rows`).  This
        method consumes the *growth* of those proc-tagged rows since the
        last call, so repeated refreshes never double-count.  Returns the
        number of observations folded in.
        """
        obs_rows = {}
        ms_rows = {}
        for row in counters.snapshot("selection.arm_obs"):
            tags = row.tag_dict
            if "proc" in tags:
                obs_rows[(tags["proc"], tags.get("key"),
                          tags.get("algorithm"))] = row.value
        for row in counters.snapshot("selection.arm_ms"):
            tags = row.tag_dict
            if "proc" in tags:
                ms_rows[(tags["proc"], tags.get("key"),
                         tags.get("algorithm"))] = row.value
        folded = 0
        with self._lock:
            for state_key, obs_total in obs_rows.items():
                proc, digest, algorithm = state_key
                if digest is None or algorithm is None:
                    continue
                ms_total = ms_rows.get(state_key, 0.0)
                prev_obs, prev_ms = self._ingested.get(state_key,
                                                       (0.0, 0.0))
                delta_obs = int(obs_total - prev_obs)
                if delta_obs <= 0:
                    continue
                self._ingested[state_key] = (obs_total, ms_total)
                arm = self._state(digest).arm(algorithm)
                arm.obs += delta_obs
                arm.ms_total += max(0.0, ms_total - prev_ms)
                folded += delta_obs
        return folded

    # -- persistence ---------------------------------------------------------

    def payload(self) -> dict:
        """The persisted table body (checksummed by :func:`save_table`)."""
        with self._lock:
            keys = {digest: {
                "decisions": state.decisions,
                "explored": state.explored,
                "order": list(state.order),
                "arms": [asdict(arm) for arm in state.arms.values()],
            } for digest, state in self._keys.items()}
        return {"keys": keys}

    def save(self, path: str | None = None) -> str | None:
        """Persist the table; returns the written path (None if nowhere)."""
        path = path or self.config.table_path
        if not path:
            return None
        save_table(self.payload(), path)
        return path

    def warm_start(self, path: str | None = None,
                   strict: bool = True) -> bool:
        """Load a persisted table into this bandit.

        A corrupt file was already discarded by :func:`load_table`
        (counted, returns ``False`` here).  A schema-version mismatch
        raises :class:`SelectionTableError` when *strict*; with
        ``strict=False`` it is counted (``selection.table_schema_reject``)
        and reported as a load failure instead — the server-startup path,
        where a stale table must not take the process down.
        """
        path = path or self.config.table_path
        if not path:
            return False
        try:
            payload = load_table(path)
        except SelectionTableError:
            if strict:
                raise
            counters.add("selection.table_schema_reject")
            return False
        if payload is None:
            return False
        with self._lock:
            for digest, entry in payload.get("keys", {}).items():
                self._keys[digest] = KeyState(
                    digest, decisions=int(entry.get("decisions", 0)),
                    explored=int(entry.get("explored", 0)),
                    order=tuple(entry.get("order", ())),
                    arms={row["algorithm"]: ArmState(**row)
                          for row in entry.get("arms", [])})
        counters.add("selection.table_loaded")
        return True


def _set_order(state: KeyState, shape, chain) -> None:
    """Make *chain* the key's arm order, pricing new arms' priors."""
    from repro.perfmodel.timing import prior_ms

    prior_shape = shape.with_(n=1) if shape.n != 1 else shape
    for algo in chain:
        arm = state.arm(algo.value)
        if arm.prior_ms is None:
            arm.prior_ms = prior_ms(algo, prior_shape)
    state.order = tuple(a.value for a in chain)


# ---------------------------------------------------------------------------
# Table persistence (schema-versioned, content-checksummed JSON).
# ---------------------------------------------------------------------------


def _canonical_body(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


def save_table(payload: dict, path: str) -> None:
    """Write a selection table: schema + crc32 of the canonical payload.

    The write is atomic (temp file + rename) so a crash mid-write leaves
    either the old table or the new one, never a torn file.
    """
    document = {
        "schema": TABLE_SCHEMA_VERSION,
        "checksum": zlib.crc32(_canonical_body(payload)),
        "payload": payload,
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_table(path: str) -> dict | None:
    """Read a persisted selection table.

    - Missing file: ``None``, silently (a cold start is normal).
    - Unparseable/torn/checksum-mismatched file: ``None``, after counting
      ``selection.table_corrupt`` — discarded exactly like a corrupt
      spectrum-cache entry, never trusted.
    - Schema version other than :data:`TABLE_SCHEMA_VERSION`: raises
      :class:`SelectionTableError` — a different schema is a different
      contract, and guessing at field meanings is how corrupt learned
      state gets served.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            document = json.load(fh)
    except (OSError, ValueError):
        counters.add("selection.table_corrupt")
        return None
    if not isinstance(document, dict) or "payload" not in document \
            or "checksum" not in document or "schema" not in document:
        counters.add("selection.table_corrupt")
        return None
    if document["schema"] != TABLE_SCHEMA_VERSION:
        raise SelectionTableError(
            f"selection table {path} has schema "
            f"{document['schema']!r}; this build reads schema "
            f"{TABLE_SCHEMA_VERSION} — regenerate the table instead of "
            f"reinterpreting it")
    if zlib.crc32(_canonical_body(document["payload"])) \
            != document["checksum"]:
        counters.add("selection.table_corrupt")
        return None
    return document["payload"]


# ---------------------------------------------------------------------------
# Process-wide bandit (the serving layer's hook) and the live executor.
# ---------------------------------------------------------------------------

_active_lock = threading.Lock()
_ACTIVE: SelectionBandit | None = None
_env_checked = False

#: Test/chaos hook: a callable applied to every shadow output before the
#: parity check (``repro selection-drill`` and the property tests use it
#: to prove a poisoned shadow cannot alter the served result).  Never set
#: in production.
_SHADOW_CHAOS: Callable[[np.ndarray], np.ndarray] | None = None


def set_shadow_chaos(fn: Callable[[np.ndarray], np.ndarray] | None) -> None:
    """Install (or clear, with ``None``) the shadow-corruption hook."""
    global _SHADOW_CHAOS
    _SHADOW_CHAOS = fn


def enable_bandit(config: BanditConfig | None = None) -> SelectionBandit:
    """Install a process-wide bandit (replacing any active one)."""
    global _ACTIVE, _env_checked
    bandit = SelectionBandit(config)
    bandit.warm_start(strict=False)
    with _active_lock:
        _ACTIVE = bandit
        _env_checked = True
    return bandit


def disable_bandit() -> None:
    """Drop the process-wide bandit (env re-activation stays off)."""
    global _ACTIVE, _env_checked
    with _active_lock:
        _ACTIVE = None
        _env_checked = True


def active_bandit() -> SelectionBandit | None:
    """The process-wide bandit, activating from the environment once.

    ``REPRO_SELECTION_BANDIT=1`` enables full selection (the bandit's
    choice is served); ``=shadow`` enables observe-only mode (requested
    algorithm served, alternatives shadow-explored).  Anything else — the
    default — keeps the bandit off, and the serving hot path pays one
    ``None`` check.
    """
    global _ACTIVE, _env_checked
    if _ACTIVE is None and not _env_checked:
        with _active_lock:
            if _ACTIVE is None and not _env_checked:
                _env_checked = True
                mode = os.environ.get(ENABLE_ENV, "").strip().lower()
                if mode in ("1", "true", "on", "apply", "shadow"):
                    bandit = SelectionBandit(BanditConfig.from_env())
                    bandit.warm_start(strict=False)
                    _ACTIVE = bandit
    return _ACTIVE


def _reset_child_state() -> None:
    """Fork-safety: fresh locks, fresh activation state (cluster workers).

    A forked worker inherits the parent's bandit object — including a
    lock another parent thread may have held at fork time — so the child
    drops it and re-activates from the environment on first use, exactly
    like the plan/spectrum caches start empty.
    """
    global _active_lock, _ACTIVE, _env_checked
    _active_lock = threading.Lock()
    _ACTIVE = None
    _env_checked = False


def bandit_conv2d(bandit: SelectionBandit, x: np.ndarray,
                  weight: np.ndarray, bias: np.ndarray | None, *,
                  padding, stride, dilation, groups: int, requested: str,
                  strategy: str, backend: str | None,
                  run: Callable[[str], np.ndarray]) -> np.ndarray:
    """One bandit-routed conv2d: decide, serve the primary, maybe shadow.

    *run* executes one algorithm through the caller's normal dispatch
    (guard chain included when supervision is on) and produces the served
    result.  The shadow path never touches it: see :func:`_run_shadow`.
    """
    from repro.utils.shapes import ConvShape

    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride,
                                   dilation, groups)
    digest = _conv2d_digest(x, weight, padding=padding, stride=stride,
                            dilation=dilation, groups=groups,
                            strategy=strategy, backend=backend)
    decision = bandit.decide(digest, shape, requested)
    start = time.perf_counter()
    out = run(decision.algorithm)
    primary_ms = (time.perf_counter() - start) * 1e3
    bandit.record(digest, decision.algorithm, primary_ms,
                  rows=int(x.shape[0]))
    if decision.shadow is not None:
        _run_shadow(bandit, digest, decision.shadow, out, x, weight, bias,
                    padding=padding, stride=stride, dilation=dilation,
                    groups=groups)
    return out


def _run_shadow(bandit: SelectionBandit, digest: str, algorithm: str,
                served: np.ndarray, x: np.ndarray, weight: np.ndarray,
                bias: np.ndarray | None, *, padding, stride, dilation,
                groups: int) -> None:
    """Execute one exploration arm without any way to affect the caller.

    Safety rules, in the order they are enforced:

    - the shadow runs through :func:`~repro.guard.chain.guarded_conv2d`
      with a single-entry chain (no fallback — a failing arm must *look*
      failed, not silently score a fallback's timing) and its **own**
      breaker scope, so a chronically bad shadow arm cannot open the
      serving family's breaker;
    - any exception is swallowed into a counter and an arm penalty;
    - the timing is credited only after the output parity-checks against
      the served result — a fast-but-wrong arm scores nothing.
    """
    from repro.guard.chain import guarded_conv2d
    from repro.guard.state import current_config

    rows = int(x.shape[0])
    try:
        # Everything from here to the parity verdict sits inside one
        # try: a shadow failing *anywhere* — engine, chaos hook, parity
        # arithmetic — must cost a counter, never reach the caller.
        config = current_config().with_(chain=())
        start = time.perf_counter()
        shadow_out = guarded_conv2d(
            x, weight, bias=bias, padding=padding, stride=stride,
            dilation=dilation, groups=groups, algorithm=algorithm,
            config=config, breaker_key=("selection-shadow", digest))
        shadow_ms = (time.perf_counter() - start) * 1e3
        chaos = _SHADOW_CHAOS
        if chaos is not None:
            shadow_out = chaos(shadow_out)
        atol = PARITY_ATOL * max(1.0, float(np.max(np.abs(served)))
                                 if served.size else 1.0)
        ok = shadow_out.shape == served.shape and np.allclose(
            shadow_out, served, rtol=PARITY_RTOL, atol=atol)
    except Exception:
        bandit.record_shadow_failure(digest, algorithm, "error")
        return
    if ok:
        bandit.record(digest, algorithm, shadow_ms, rows=rows,
                      shadow=True)
    else:
        bandit.record_shadow_failure(digest, algorithm, "parity_fail")


# ---------------------------------------------------------------------------
# CLI rendering.
# ---------------------------------------------------------------------------


def selection_counter_stats() -> dict:
    """Process-wide selection counters (survive the bandit object)."""
    return {
        "decisions": int(counters.total("selection.decisions")),
        "applied": int(counters.total("selection.applied")),
        "explored": int(counters.total("selection.explore")),
        "shadow_ok": int(counters.total("selection.shadow_ok")),
        "shadow_parity_fail":
            int(counters.total("selection.shadow_parity_fail")),
        "shadow_error": int(counters.total("selection.shadow_error")),
        "arms_poisoned": int(counters.total("selection.arm_poisoned")),
        "table_corrupt": int(counters.total("selection.table_corrupt")),
    }


def format_selection_stats(stats: dict | None = None) -> str:
    """Render a bandit table snapshot for ``repro selection-stats``."""
    if stats is None:
        bandit = active_bandit()
        if bandit is None:
            return ("no active selection bandit "
                    f"(set {ENABLE_ENV}=1 or {ENABLE_ENV}=shadow, or pass "
                    "--table to read a persisted table)")
        stats = bandit.stats()
    keys = stats.get("keys", [])
    explored = stats.get("explored", 0)
    decisions = stats.get("decisions", 0)
    rate = f" ({explored / decisions:.1%} explored)" if decisions else ""
    lines = [
        f"selection: {len(keys)} key(s), "
        f"{stats.get('converged_keys', 0)} converged, "
        f"{decisions} decision(s), {explored} shadow(s){rate}, "
        f"mode={'apply' if stats.get('apply', True) else 'shadow'}"
    ]
    for entry in keys:
        status = "converged" if entry["converged"] else "exploring"
        lines.append("")
        lines.append(f"key {entry['key']}")
        lines.append(f"  {status}; best={entry['best']}; "
                     f"decisions={entry['decisions']}, "
                     f"explored={entry['explored']}")
        lines.append(f"  {'arm':<22} {'prior_ms':>10} {'obs':>6} "
                     f"{'mean_ms':>10} {'post_ms':>10}  state")
        for arm in entry["arms"]:
            def fmt(value):
                return f"{value:10.4f}" if value is not None \
                    else f"{'-':>10}"
            state = "poisoned" if arm["poisoned"] else (
                "best" if arm["algorithm"] == entry["best"] else "ok")
            lines.append(f"  {arm['algorithm']:<22} {fmt(arm['prior_ms'])} "
                         f"{arm['obs']:>6} {fmt(arm['mean_ms'])} "
                         f"{fmt(arm['posterior_ms'])}  {state}")
    return "\n".join(lines)
