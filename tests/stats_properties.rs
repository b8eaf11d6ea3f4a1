//! Seeded property tests for the statistics layer: histogram algebra,
//! calibration-table robustness, and the closed calibration loop.
//!
//! All randomness flows from `numerics::rng` with fixed seeds, so every
//! "property" here is a deterministic test — failures reproduce exactly.

use accel::host::CorrectionTable;
use numerics::rng::{rng_from_seed, Rng};
use rebooting_models::workload::{job_seeds, mixed_workload};
use runtime::stats::{
    LatencyHistogram, Slot, BACKEND_FIELDS, LATENCY_BOUNDS_US, LATENCY_BUCKETS, RUNTIME_FIELDS,
};
use runtime::{
    BackendThroughput, DispatchPolicy, JobOptions, JobOutcome, Runtime, RuntimeConfig, RuntimeStats,
};
use std::time::Duration;

fn random_histogram(rng: &mut impl Rng) -> LatencyHistogram {
    let mut counts = [0u64; LATENCY_BUCKETS];
    for c in &mut counts {
        // Small values: conservation checks must not wrap u64.
        *c = rng.gen_range(0..1_000u64);
    }
    LatencyHistogram::from_counts(counts)
}

#[test]
fn histogram_merge_is_commutative() {
    let mut rng = rng_from_seed(0xA1);
    for _ in 0..200 {
        let a = random_histogram(&mut rng);
        let b = random_histogram(&mut rng);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
    }
}

#[test]
fn histogram_merge_is_associative() {
    let mut rng = rng_from_seed(0xA2);
    for _ in 0..200 {
        let a = random_histogram(&mut rng);
        let b = random_histogram(&mut rng);
        let c = random_histogram(&mut rng);
        let mut left = a; // (a + b) + c
        left.merge(&b);
        left.merge(&c);
        let mut bc = b; // a + (b + c)
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
    }
}

#[test]
fn histogram_merge_conserves_counts() {
    let mut rng = rng_from_seed(0xA3);
    for _ in 0..200 {
        let a = random_histogram(&mut rng);
        let b = random_histogram(&mut rng);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.total(), a.total() + b.total());
        for i in 0..LATENCY_BUCKETS {
            assert_eq!(merged.counts()[i], a.counts()[i] + b.counts()[i]);
        }
        // The empty histogram is the identity element.
        let mut with_empty = a;
        with_empty.merge(&LatencyHistogram::new());
        assert_eq!(with_empty, a);
    }
}

#[test]
fn histogram_counts_round_trip_through_from_counts() {
    let mut rng = rng_from_seed(0xA4);
    for _ in 0..100 {
        let h = random_histogram(&mut rng);
        assert_eq!(LatencyHistogram::from_counts(*h.counts()), h);
    }
}

#[test]
fn histogram_record_never_panics_and_buckets_monotonically() {
    // Extremes first: zero, the bucket bounds themselves (inclusive),
    // one past each bound, and durations far beyond the last bucket.
    let mut h = LatencyHistogram::new();
    let mut expected_total = 0u64;
    let mut probes: Vec<Duration> = vec![
        Duration::ZERO,
        Duration::from_nanos(1),
        Duration::from_secs(u64::MAX / 2_000_000_000),
        Duration::MAX,
    ];
    for &bound in &LATENCY_BOUNDS_US {
        probes.push(Duration::from_micros(bound));
        probes.push(Duration::from_micros(bound + 1));
    }
    let mut rng = rng_from_seed(0xA5);
    for _ in 0..500 {
        probes.push(Duration::from_micros(rng.gen_range(0..100_000_000u64)));
    }
    for latency in probes {
        h.record(latency);
        expected_total += 1;
        assert_eq!(h.total(), expected_total, "each record adds exactly one");
    }
    // Longer latency never lands in a lower bucket.
    let bucket_of = |d: Duration| {
        let mut probe = LatencyHistogram::new();
        probe.record(d);
        probe.counts().iter().position(|&c| c == 1).unwrap()
    };
    let mut last = 0usize;
    for us in [0u64, 5, 10, 11, 99, 100, 5_000, 1_000_000, 10_000_001] {
        let bucket = bucket_of(Duration::from_micros(us));
        assert!(bucket >= last, "{us}µs bucketed below a faster latency");
        last = bucket;
    }
    assert_eq!(bucket_of(Duration::MAX), LATENCY_BUCKETS - 1);
}

#[test]
fn absorbing_saturated_snapshots_saturates_instead_of_overflowing() {
    // A router folds every shard's wire-decoded snapshot: a shard that
    // reports `u64::MAX` must not panic it (dev builds check overflow)
    // or wrap its sums (release builds do not).
    let mut full = RuntimeStats {
        latency: LatencyHistogram::from_counts([u64::MAX; LATENCY_BUCKETS]),
        ..RuntimeStats::default()
    };
    let mut row = BackendThroughput::default();
    for field in RUNTIME_FIELDS {
        if let Slot::Count(_, set) = field.slot {
            *set(&mut full) = u64::MAX;
        }
    }
    for field in BACKEND_FIELDS {
        if let Slot::Count(_, set) = field.slot {
            *set(&mut row) = u64::MAX;
        }
    }
    full.per_backend.insert("cpu".into(), row);

    let mut merged = RuntimeStats::default();
    merged.absorb(&full);
    merged.absorb(&full);
    for field in RUNTIME_FIELDS {
        assert!(field.same(&merged, &full), "{}", field.name);
    }
    assert_eq!(merged.per_backend["cpu"], row);
    assert_eq!(merged.latency.total(), u64::MAX);
    assert_eq!(merged.settled(), u64::MAX);
    assert!(merged.to_string().contains("admission:"));
}

/// Garbage and edge-case EWMA ratios a hostile or broken peer could
/// report in a stats row.
fn hostile_ratios(rng: &mut impl Rng) -> Vec<f64> {
    let mut ratios = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -1.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        1e-300,
        1e300,
    ];
    for _ in 0..50 {
        ratios.push((rng.next_f64() - 0.5) * 1e6);
    }
    ratios
}

#[test]
fn calibrated_corrections_stay_finite_and_positive_under_arbitrary_ratios() {
    let mut rng = rng_from_seed(0xB1);
    let backends = ["cpu", "quantum", "oscillator", "memcomputing"];
    for trial in 0..100 {
        // A base table with random (valid) factors for some backends.
        let mut base = CorrectionTable::new();
        for name in &backends {
            if rng.gen_bool(0.7) {
                base.set(name, 0.01 + rng.next_f64() * 10.0);
            }
        }
        // Stats rows carrying arbitrary — possibly garbage — ratios.
        let hostile = hostile_ratios(&mut rng);
        let mut stats = RuntimeStats::default();
        for name in &backends {
            stats.per_backend.insert(
                (*name).into(),
                BackendThroughput {
                    jobs: rng.gen_range(0..3u64),
                    ewma_correction: hostile[rng.gen_range(0..hostile.len())],
                    ..BackendThroughput::default()
                },
            );
        }
        let calibrated = stats.calibrated(&base);
        for name in &backends {
            let factor = calibrated.factor(name);
            assert!(
                factor.is_finite() && factor > 0.0,
                "trial {trial}: factor for {name} must stay usable, got {factor}"
            );
            // A garbage ratio must leave the base factor untouched rather
            // than poisoning it.
            let t = &stats.per_backend[*name];
            let proposed = base.factor(name) * t.ewma_correction;
            if t.jobs == 0 || !proposed.is_finite() || proposed <= 0.0 {
                assert_eq!(
                    factor,
                    base.factor(name),
                    "trial {trial}: {name} must keep its base factor"
                );
            }
        }
    }
}

#[test]
fn calibrated_composes_with_itself_without_drifting_to_nonsense() {
    // Repeatedly folding the same (valid) stats into the table is the
    // steady-state serving loop; factors must stay positive and finite
    // for any number of rounds.
    let mut stats = RuntimeStats::default();
    stats.per_backend.insert(
        "cpu".into(),
        BackendThroughput {
            jobs: 10,
            ewma_correction: 1.5,
            ..BackendThroughput::default()
        },
    );
    let mut table = CorrectionTable::new();
    for round in 0..200 {
        table = stats.calibrated(&table);
        let factor = table.factor("cpu");
        assert!(
            factor.is_finite() && factor > 0.0,
            "round {round}: factor degenerated to {factor}"
        );
    }
}

#[test]
fn calibration_rounds_end_no_worse_than_they_start() {
    // The closed loop: each round's stats, folded by `calibrated`, plan the
    // next round. Routing and modelled device seconds are pure functions of
    // the submission, so the per-round error is exact and the property is
    // hard. Only last-versus-first holds: the error is not monotone per
    // round (prefer-specialized rises from round 1 to 2, min-energy from
    // round 2 to 3).
    let kernels = mixed_workload(32, 2019).unwrap();
    let seeds = job_seeds(32, 2019);
    for policy in [
        DispatchPolicy::PreferSpecialized,
        DispatchPolicy::CpuOnly,
        DispatchPolicy::MinPredictedLatency,
        DispatchPolicy::MinPredictedEnergy,
        DispatchPolicy::DeadlineAware,
    ] {
        let mut corrections = CorrectionTable::new();
        let mut errors = Vec::new();
        for _ in 0..4 {
            let rt = Runtime::start(RuntimeConfig {
                workers: 2,
                policy,
                corrections: corrections.clone(),
                ..RuntimeConfig::default()
            })
            .unwrap();
            // Closed loop, one job in flight: the stats EWMAs accumulate
            // in submission order.
            for (kernel, &seed) in kernels.iter().zip(&seeds) {
                let outcome = rt
                    .submit_with(kernel.clone(), JobOptions::with_seed(seed))
                    .unwrap()
                    .wait();
                assert!(
                    matches!(outcome, JobOutcome::Completed { .. }),
                    "{policy:?}: {outcome:?}"
                );
            }
            let stats = rt.shutdown();
            let actual = stats.total_device_seconds();
            assert!(actual > 0.0, "{policy:?}: no device time recorded");
            errors.push((stats.total_predicted_device_seconds() - actual).abs() / actual);
            corrections = stats.calibrated(&corrections);
        }
        assert!(
            errors[3] <= errors[0] + 1e-12,
            "{policy:?}: calibration ended worse than it started: {errors:?}"
        );
    }
}
