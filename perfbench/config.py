"""Frozen settings of the repository benchmark.

Every number a run depends on lives here, so two commits measured with
the same benchmark code see the same inputs.  ``BENCHMARK.json`` quotes
the serving rates and the latency limit in its workload reasons; the
benchmark's tests check that the two agree.
"""

#: BLAS/OpenMP thread pins, forced before NumPy loads.  ``serve_poisson``
#: runs a worker process beside the router, so one BLAS thread per process
#: keeps the processes from oversubscribing the CPU, and the closed-loop
#: workloads use the same pins so that every workload measures the same
#: engine configuration.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Workloads whose processes are all pinned to one CPU of those the run
#: may use (the highest-numbered).  The cluster's router and worker then
#: need one free CPU, not the whole host: on a shared host the CPU left to
#: a run varies, and a burst spread over every CPU measured the scheduler
#: more than the program.  The closed-loop workloads run one thread and
#: are left to the scheduler.
ONE_CPU_WORKLOADS = ("serve_poisson",)

#: Run-wide wall-clock budget.  A run that has not finished by then stops
#: itself through the normal teardown and exits non-zero.
RUN_DEADLINE_S = 170
#: If that teardown itself is stuck, the run dumps every thread's stack,
#: kills its children and exits non-zero at this point.
HARD_DEADLINE_S = 176
#: Budget of one set-up probe process.
PROBE_DEADLINE_S = 60
#: Fresh processes whose set-up times give ``setup_s`` (their median).
SETUP_PROBES = 7
#: Longest wait for any single step (a batch of futures, a close).
WAIT_TIMEOUT_S = 30.0

#: Latency percentiles considered for the tail; the tail is the highest
#: one with at least ``TAIL_MIN_BEYOND`` samples beyond it.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

#: Relative tolerance (against the reference's peak magnitude) for
#: PolyHankel against GEMM.  float64 FFT round-off through 20 layers stays
#: near 1e-13; a wrong tap or index is off by O(1).
REL_TOL = 1e-8

INFER = {
    # synthetic_network(32, seed=design_seed): 20 convs, kernels 3/5/7.
    "design_seed": 0,
    "input_size": 32,
    "in_channels": 3,
    "batch": 4,
    "inputs": 8,        # distinct input batches, cycled
}

TRAIN = {
    "size": 32,
    "batch": 16,
    "batches": 4,       # distinct mini-batches, cycled
    "classes": 10,
    "lr": 0.01,
    "momentum": 0.9,
    # (in, out, kernel, padding) of the three convolutions.
    "convs": ((3, 16, 3, 1), (16, 32, 3, 1), (32, 10, 5, 0)),
}

SERVE = {
    # One worker: with two, the router homes each weight on a replica by a
    # hash of the weight's identity, so whether the two families share a
    # replica is drawn anew in every run and p50 flips between two levels.
    "workers": 1,
    "max_batch": 8,
    # Offered rates in requests/s, frozen, never recalibrated per run.  The
    # warm burst capacity on one CPU, measured at the commit that
    # introduced the benchmark, was 1400 to 2300/s as the host's speed
    # drifted, so these are at most about 5% and 10% of it.  Latency at 45-70% of capacity spread by 35-75% from
    # run to run (the host's speed drifts and queueing amplifies it), and
    # at 300/s two busy-looping neighbours on the host tripled p50.
    "lo_rps": 75.0,
    "hi_rps": 150.0,
    # A hi-rate request that fails or takes longer than this misses the SLO.
    "latency_limit_ms": 50.0,
    # Untimed requests before the first measurement: workers build a plan
    # per batch size that coalescing produces, on first sight.
    "warmup": 1000,
    # Each run is this many rounds of: a capacity burst, the lo rate and the
    # hi rate.  The hi-rate median and tail are medians of the per-round
    # figures; a hi round holds ~160 requests, so its tail is p90, which
    # falls among the large family's requests.  Capacity and the lo-rate
    # figures pool all rounds.
    "rounds": 16,
    # Capacity: completed requests/s for a burst of this many requests,
    # offered as fast as an in-flight window below the server's default
    # budget (256) admits.
    "burst": 400,
    "window": 192,
    # Shares of the run's seconds spent at each offered rate.
    "lo_share": 0.25,
    "hi_share": 0.5,
    # Distinct input images per family.
    "pool": 32,
    # (name, (channels, height, width), filters, kernel, padding, share).
    # The selection rules route the 8x8 family to implicit-precomp GEMM
    # and the 32x32 family to PolyHankel.  Most requests are small, so
    # per-request fixed cost (admission, coalescing, routing, shared-memory
    # copies, guard, rule selection) dominates, as this workload intends.
    "families": (
        ("c3_8x8", (3, 8, 8), 8, 3, 1, 0.8),
        ("c16_32x32", (16, 32, 32), 16, 3, 1, 0.2),
    ),
}
