//! Property-based tests over the core data structures and invariants,
//! spanning several workspace crates.

use ayb_circuit::{DesignPoint, Parameter, ParameterSet};
use ayb_moo::{dominates, normalize_weights, pareto_front, Evaluation, Sense};
use ayb_sim::linalg::{solve_in_place, DenseMatrix};
use ayb_table::{CubicSpline, Table1d};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parameter normalisation and denormalisation are inverse operations for
    /// any bounds and any normalised coordinate.
    #[test]
    fn parameter_normalize_roundtrip(
        lower in -1.0e-3f64..1.0e-3,
        span in 1.0e-6f64..1.0e3,
        x in 0.0f64..1.0,
    ) {
        let p = Parameter::new("p", lower, lower + span, "u");
        let value = p.denormalize(x);
        let back = p.normalize(value).unwrap();
        prop_assert!((back - x).abs() < 1e-6);
        prop_assert!(value >= lower - 1e-12 && value <= lower + span + 1e-12);
    }

    /// Design points built from a parameter set always stay inside the bounds.
    #[test]
    fn parameter_set_denormalize_respects_bounds(values in proptest::collection::vec(0.0f64..1.0, 8)) {
        let set: ParameterSet = (0..8)
            .map(|i| Parameter::new(format!("p{i}"), 1.0 + i as f64, 2.0 + i as f64, "u"))
            .collect();
        let point: DesignPoint = set.denormalize(&values).unwrap();
        for (i, (_, v)) in point.iter().enumerate() {
            prop_assert!(v >= 1.0 + i as f64 - 1e-12);
            prop_assert!(v <= 2.0 + i as f64 + 1e-12);
        }
    }

    /// Normalised WBGA weights always sum to one and stay non-negative (eq. 4).
    #[test]
    fn weights_normalize_to_unit_sum(genes in proptest::collection::vec(0.0f64..1.0, 1..6)) {
        let w = normalize_weights(&genes);
        prop_assert_eq!(w.len(), genes.len());
        prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(w.iter().all(|&x| x >= 0.0));
    }

    /// The Pareto front never contains a point dominated by another archive point
    /// and every archive point is dominated by (or equal to) some front member.
    #[test]
    fn pareto_front_conditions_hold(points in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 3..60)) {
        let senses = [Sense::Maximize, Sense::Maximize];
        let evals: Vec<Evaluation> = points
            .iter()
            .map(|&(a, b)| Evaluation::new(vec![a, b], vec![a, b]))
            .collect();
        let front = pareto_front(&evals, &senses);
        prop_assert!(!front.is_empty());
        // Condition (a) of §3.3: mutual non-domination.
        for a in &front {
            for b in &front {
                prop_assert!(!dominates(&a.objectives, &b.objectives, &senses)
                    || a.objectives == b.objectives);
            }
        }
        // Condition (b): every non-member is dominated by some member.
        for e in &evals {
            let on_front = front.iter().any(|f| f.objectives == e.objectives);
            if !on_front {
                prop_assert!(front.iter().any(|f| dominates(&f.objectives, &e.objectives, &senses)));
            }
        }
    }

    /// Cubic splines interpolate their knots exactly and stay finite between them.
    #[test]
    fn spline_interpolates_knots(ys in proptest::collection::vec(-100.0f64..100.0, 4..20)) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let spline = CubicSpline::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            prop_assert!((spline.value(*x) - y).abs() < 1e-8);
        }
        for i in 0..(xs.len() - 1) * 4 {
            let q = i as f64 * 0.25;
            prop_assert!(spline.value(q).is_finite());
        }
    }

    /// Cubic table lookups never extrapolate when built with the paper's "3E"
    /// control: out-of-range queries are always errors, in-range queries never are.
    #[test]
    fn table_respects_no_extrapolation(
        ys in proptest::collection::vec(0.0f64..10.0, 4..16),
        q in -2.0f64..20.0,
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let table = Table1d::cubic(&xs, &ys).unwrap();
        let (lo, hi) = table.domain();
        let result = table.lookup(q);
        if q < lo || q > hi {
            prop_assert!(result.is_err());
        } else {
            prop_assert!(result.is_ok());
        }
    }

    /// LU solve produces residuals near machine precision for well-conditioned
    /// (diagonally dominant) systems of any size up to 20.
    #[test]
    fn lu_solve_small_residual(
        n in 2usize..20,
        seed in 0u64..10_000,
    ) {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a: DenseMatrix<f64> = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| next() * (i as f64 + 1.0)).collect();
        let b = a.mul_vec(&x_true);
        let mut lu = a.clone();
        let mut x = b.clone();
        solve_in_place(&mut lu, &mut x).unwrap();
        for (got, want) in x.iter().zip(x_true.iter()) {
            prop_assert!((got - want).abs() < 1e-7, "{} vs {}", got, want);
        }
    }

    /// Optimiser checkpoints survive the JSON round-trip bit-for-bit for any
    /// population shape, RNG state and counters — the property the resumable
    /// flow's determinism rests on (floats use shortest-round-trip text).
    #[test]
    fn checkpoint_roundtrips_bit_for_bit(
        rng_words in proptest::collection::vec(0u64..u64::MAX, 4),
        parameters in proptest::collection::vec(0.0f64..1.0, 1..9),
        weights in proptest::collection::vec(0.0f64..1.0, 2),
        objectives in proptest::collection::vec(-1.0e9f64..1.0e9, 2),
        next_generation in 0usize..1_000,
        evaluations in 0usize..100_000,
        stall in 0usize..50,
    ) {
        use ayb_moo::{Checkpoint, CheckpointIndividual, GenerationStats};

        let checkpoint = Checkpoint {
            optimizer: "wbga".to_string(),
            next_generation,
            rng_state: [rng_words[0], rng_words[1], rng_words[2], rng_words[3]],
            population: vec![
                CheckpointIndividual {
                    parameters: parameters.clone(),
                    weight_genes: weights.clone(),
                    objectives: Some(objectives.clone()),
                },
                CheckpointIndividual {
                    parameters: parameters.clone(),
                    weight_genes: weights,
                    objectives: None,
                },
            ],
            archive: vec![Evaluation::new(parameters, objectives.clone())],
            history: vec![GenerationStats {
                generation: next_generation,
                best_fitness: objectives[0],
                mean_fitness: objectives[1],
                feasible: evaluations.min(17),
            }],
            evaluations,
            failed_evaluations: evaluations / 7,
            stall_generations: stall,
            senses: vec![Sense::Maximize, Sense::Minimize],
        };
        let json = serde_json::to_string(&checkpoint).unwrap();
        let back: Checkpoint = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, checkpoint);
        // Indented JSON parses back to the same state too (stores written
        // before checkpoints were compact hold indented snapshots).
        let pretty = serde_json::to_string_pretty(&checkpoint).unwrap();
        let back: Checkpoint = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(back, checkpoint);
    }

    /// Run manifests (including the embedded optimiser configuration, seeds,
    /// solver kernel, variation batch size and early-stopping criterion)
    /// round-trip through JSON unchanged.
    #[test]
    fn manifest_roundtrips_through_json(
        seed in 0u64..u64::MAX,
        timestamps in (0u64..4_000_000_000, 0u64..4_000_000_000),
        patience in 1usize..20,
        status_index in 0usize..4,
        batch in 1usize..9,
    ) {
        use ayb_core::FlowConfig;
        use ayb_moo::{EarlyStop, GaConfig, OptimizerConfig};
        use ayb_store::{Manifest, RunStatus};

        let status = [
            RunStatus::Running,
            RunStatus::Interrupted,
            RunStatus::Completed,
            RunStatus::Failed,
        ][status_index];
        let ga = GaConfig::small_test()
            .with_seed(seed)
            .with_early_stop(EarlyStop::after_stalled_generations(patience));
        let mut flow = FlowConfig::reduced().with_seed(seed);
        flow.variation_batch = batch;
        let manifest = Manifest {
            run_id: format!("run-{seed:04}"),
            status,
            seed,
            created_unix: timestamps.0,
            updated_unix: timestamps.1,
            optimizer: OptimizerConfig::Nsga2(ga),
            flow,
        };
        let json = serde_json::to_string_pretty(&manifest).unwrap();
        let back: Manifest<FlowConfig> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, manifest);
    }
}

proptest! {
    // Each case runs three whole optimisations against a filesystem-backed
    // shard plane; a smaller case count keeps the suite fast.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sharded and unsharded evaluation of the same population return
    /// identical objective vectors (archives, counters) for all three
    /// optimisers: the shard data plane moves work, never results.
    #[test]
    fn sharded_and_unsharded_evaluation_are_identical_for_all_optimizers(
        seed in 0u64..10_000,
        shard_size in 1usize..6,
    ) {
        use ayb_moo::{
            FnProblem, GaConfig, ObjectiveSpec, OptimizerConfig, ShardedEvaluator,
            WithEvaluator,
        };
        use ayb_store::ShardDataPlane;

        let problem = FnProblem::new(
            2,
            vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::minimize("f2")],
            |x: &[f64]| {
                if x[0] + x[1] > 1.8 {
                    None // an infeasible region, so `None` slots shard too
                } else {
                    Some(vec![x[0] + x[1], (x[0] - x[1]).abs()])
                }
            },
        );
        let ga = GaConfig::small_test().with_seed(seed);
        for config in [
            OptimizerConfig::Wbga(ga),
            OptimizerConfig::Nsga2(ga),
            OptimizerConfig::RandomSearch { budget: 64, seed },
        ] {
            let reference = config.run(&problem);

            let dir = std::env::temp_dir().join(format!(
                "ayb-prop-shard-{}-{seed}-{shard_size}-{}",
                std::process::id(),
                config.name()
            ));
            let plane = ShardDataPlane::open(&dir);
            let sharded_problem = WithEvaluator::new(
                &problem,
                ShardedEvaluator::new(std::sync::Arc::new(plane), shard_size),
            );
            let sharded = config.run(&sharded_problem);
            let _ = std::fs::remove_dir_all(&dir);

            prop_assert!(
                reference.archive == sharded.archive,
                "{}: archives must match",
                config.name()
            );
            prop_assert_eq!(reference.evaluations, sharded.evaluations);
            prop_assert_eq!(reference.failed_evaluations, sharded.failed_evaluations);
        }
    }
}

proptest! {
    // Each case runs six complete five-stage flows (three optimisers, serial
    // vs sharded); a small case count keeps the suite fast.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Sharded variation analysis is bit-identical to the serial stage for
    /// all three optimisers, whatever the seed, analysed-front size and
    /// variation batch size — including fronts smaller
    /// than the number of evaluation shards per generation (population 14 /
    /// shard size 3 = 5 shards) and batches that straddle point boundaries.
    /// The run's manifest records the solver and batch size it used.
    #[test]
    fn sharded_and_serial_variation_analysis_are_identical(
        seed in 0u64..10_000,
        front_limit in 3usize..7,
        batch in 1usize..5,
    ) {
        use ayb_core::{FlowBuilder, FlowConfig};
        use ayb_moo::{GaConfig, OptimizerConfig};
        use ayb_store::{Manifest, Store};

        let mut config = FlowConfig::reduced();
        config.ga = GaConfig {
            generations: 3,
            ..config.ga
        };
        config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
        config.monte_carlo.samples = 6;
        config.max_pareto_points = front_limit;
        config.shard_size = 3;
        config.variation_batch = batch;

        for optimizer in [
            OptimizerConfig::Wbga(config.ga),
            OptimizerConfig::Nsga2(config.ga),
            OptimizerConfig::RandomSearch {
                budget: config.ga.evaluation_budget(),
                seed,
            },
        ] {
            // Serial reference: no store, no sharding.
            let serial = FlowBuilder::new(config.clone())
                .with_optimizer(optimizer.clone())
                .with_seed(seed)
                .run()
                .expect("serial flow completes");

            // Sharded: durable run, variation stage through the shard plane
            // (no external workers — the submitter services every point).
            let dir = std::env::temp_dir().join(format!(
                "ayb-prop-var-{}-{seed}-{front_limit}-{}",
                std::process::id(),
                optimizer.name()
            ));
            let store = Store::open(&dir).expect("store opens");
            let sharded = FlowBuilder::new(config.clone())
                .with_optimizer(optimizer.clone())
                .with_seed(seed)
                .with_store(&store)
                .sharded(true)
                .run()
                .expect("sharded flow completes");
            // The durable manifest records the solver kernel and batch
            // size, so a resume (or an `ayb serve` worker) reproduces the
            // exact kernel configuration.
            let run_id = store.run_ids().expect("runs list")[0].clone();
            let manifest: Manifest<FlowConfig> = store
                .run(&run_id)
                .expect("run handle")
                .manifest()
                .expect("manifest parses");
            prop_assert_eq!(manifest.flow.solver, config.solver);
            prop_assert_eq!(manifest.flow.variation_batch, batch);
            let _ = std::fs::remove_dir_all(&dir);

            prop_assert!(
                serial.pareto_data == sharded.pareto_data,
                "{}: variation tables must match",
                optimizer.name()
            );
            prop_assert!(
                serial.determinism_digest() == sharded.determinism_digest(),
                "{}: whole-flow digest must match",
                optimizer.name()
            );
            prop_assert_eq!(serial.timings.mc_points, sharded.timings.mc_points);
        }
    }
}

proptest! {
    // Each case runs two complete flows; a small case count keeps the
    // suite fast.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Telemetry is digest-neutral: a durable sharded run with a recorder
    /// attached (ring, metrics, and an extra JSONL sink on top of the
    /// run's own `events.jsonl`) digests bit-identically to a plain serial
    /// run with no telemetry at all, for any seed and front size. The event
    /// layer observes the flow; it must never feed it.
    #[test]
    fn telemetry_never_perturbs_the_determinism_digest(
        seed in 0u64..10_000,
        front_limit in 3usize..7,
    ) {
        use ayb_core::{FlowBuilder, FlowConfig};
        use ayb_moo::GaConfig;
        use ayb_obs::{JsonlSink, Recorder};
        use ayb_store::Store;

        let mut config = FlowConfig::reduced();
        config.ga = GaConfig {
            generations: 3,
            ..config.ga
        };
        config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
        config.monte_carlo.samples = 6;
        config.max_pareto_points = front_limit;
        config.shard_size = 3;

        // Reference: serial, storeless, telemetry-free.
        let serial = FlowBuilder::new(config.clone())
            .with_seed(seed)
            .run()
            .expect("serial flow completes");

        // Instrumented: durable, sharded, recorder with an extra sink.
        let dir = std::env::temp_dir().join(format!(
            "ayb-prop-obs-{}-{seed}-{front_limit}",
            std::process::id()
        ));
        let side_log = dir.join("side-events.jsonl");
        let store = Store::open(&dir).expect("store opens");
        let recorder = Recorder::new();
        recorder.add_sink(Box::new(JsonlSink::new(&side_log)));
        let instrumented = FlowBuilder::new(config.clone())
            .with_seed(seed)
            .with_store(&store)
            .sharded(true)
            .with_recorder(recorder.clone())
            .run()
            .expect("instrumented flow completes");

        prop_assert!(
            serial.determinism_digest() == instrumented.determinism_digest(),
            "telemetry changed the digest"
        );
        // The instrumentation actually ran: events were recorded and both
        // logs are well-formed.
        prop_assert!(recorder.metrics().counter("ayb_events_total") > 0);
        let side = ayb_obs::read_events(&side_log).expect("side log parses");
        prop_assert!(!side.is_empty());
        ayb_obs::check_monotonic_per_pid(&side).expect("side log ordered");
        let run_id = store.run_ids().expect("runs list")[0].clone();
        let run_log = store
            .run(&run_id)
            .expect("run handle")
            .events_path();
        let events = ayb_obs::read_events(&run_log).expect("events.jsonl parses");
        prop_assert!(!events.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    // Each case runs three optimisations against an in-process TCP
    // coordinator; a small case count keeps the suite fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sharded evaluation over the *network* data plane (an in-process
    /// coordinator spoken to through `TcpTransport`) returns objective
    /// vectors identical to local evaluation for all three optimisers — the
    /// wire, like the on-disk plane, moves work but never changes results.
    #[test]
    fn tcp_sharded_evaluation_matches_local_for_all_optimizers(
        seed in 0u64..10_000,
        shard_size in 1usize..6,
    ) {
        use ayb_moo::{
            FnProblem, GaConfig, ObjectiveSpec, OptimizerConfig, ShardedEvaluator,
            WithEvaluator,
        };
        use ayb_net::{Coordinator, CoordinatorConfig, TcpTransport};

        let problem = FnProblem::new(
            2,
            vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::minimize("f2")],
            |x: &[f64]| {
                if x[0] + x[1] > 1.8 {
                    None // an infeasible region, so `None` slots travel too
                } else {
                    Some(vec![x[0] + x[1], (x[0] - x[1]).abs()])
                }
            },
        );
        let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default())
            .expect("coordinator binds an ephemeral port");
        let ga = GaConfig::small_test().with_seed(seed);
        for config in [
            OptimizerConfig::Wbga(ga),
            OptimizerConfig::Nsga2(ga),
            OptimizerConfig::RandomSearch { budget: 64, seed },
        ] {
            let reference = config.run(&problem);

            let transport = TcpTransport::connect(coordinator.local_addr().to_string());
            let sharded_problem = WithEvaluator::new(
                &problem,
                ShardedEvaluator::new(std::sync::Arc::new(transport), shard_size),
            );
            let sharded = config.run(&sharded_problem);

            prop_assert!(
                reference.archive == sharded.archive,
                "{}: archives must match over TCP",
                config.name()
            );
            prop_assert_eq!(reference.evaluations, sharded.evaluations);
            prop_assert_eq!(reference.failed_evaluations, sharded.failed_evaluations);
        }
    }
}

proptest! {
    // Each case runs two complete flows; a small case count keeps the suite
    // fast.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The solver kernel is bit-deterministic under `with_seed`: running the
    /// same seeded flow twice produces identical determinism digests.
    #[test]
    fn each_solver_backend_is_bit_deterministic_under_a_seed(seed in 0u64..10_000) {
        use ayb_core::{FlowBuilder, FlowConfig};
        use ayb_moo::GaConfig;

        let mut config = FlowConfig::reduced();
        config.ga = GaConfig {
            generations: 2,
            ..config.ga
        };
        config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
        config.monte_carlo.samples = 4;
        config.max_pareto_points = 4;

        let first = FlowBuilder::new(config.clone())
            .with_seed(seed)
            .run()
            .expect("first flow completes");
        let second = FlowBuilder::new(config)
            .with_seed(seed)
            .run()
            .expect("second flow completes");
        prop_assert!(
            first.determinism_digest() == second.determinism_digest(),
            "digest drifted across identical seeded runs"
        );
    }
}

// ---------------------------------------------------------------------------
// Wire robustness: both network listeners — the coordinator's length-framed
// TCP plane and the service plane's HTTP/1.1 listener — face sockets they do
// not control. Arbitrary garbage, truncated frames, and hostile length
// announcements must never wedge or kill a listener: the abusive connection
// is rejected or dropped, and the *next* well-formed request on a fresh
// connection is answered normally.

/// Writes `bytes`, half-closes, then drains whatever the peer says until it
/// hangs up and returns it. Read timeouts are treated as the peer's
/// (acceptable) silence.
fn abuse_socket(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<u8> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("abuse connection");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    // The listener may already have dropped us mid-write; that is fine.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    reply
}

/// Syntactically plausible JSON nested `depth` levels deep and never
/// closed: arrays for an even depth, objects for an odd one. Far past the
/// parser's nesting cap, it must be rejected rather than recursed into until
/// the connection thread's stack overflows.
fn deeply_nested_json(depth: usize) -> Vec<u8> {
    let open: &[u8] = if depth.is_multiple_of(2) {
        b"["
    } else {
        b"{\"k\":"
    };
    open.repeat(depth)
}

proptest! {
    // Each case binds a fresh listener; a handful of cases keeps the suite
    // fast while still sampling structurally different garbage.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The coordinator survives raw garbage, a truncated frame, a frame
    /// header announcing an absurd length, and a deeply nested frame — and
    /// still answers a well-formed `Stats` request afterwards.
    #[test]
    fn coordinator_survives_hostile_bytes_on_the_wire(
        raw in proptest::collection::vec(0u32..256, 0usize..512),
        announced in (ayb_net::wire::MAX_FRAME_BYTES as u32 + 1)..u32::MAX,
        depth in 20_000usize..200_000,
    ) {
        use ayb_net::wire::{read_frame, write_frame, Request, Response};
        use ayb_net::{Coordinator, CoordinatorConfig};

        let garbage: Vec<u8> = raw.iter().map(|&b| b as u8).collect();

        let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorConfig::default())
            .expect("coordinator binds");
        let addr = coordinator.local_addr();

        // Raw garbage: the first 4 bytes parse as some length; the body
        // never arrives in full.
        abuse_socket(addr, &garbage);
        // Hostile announcement: a header promising more than the frame
        // bound must be rejected before any allocation.
        abuse_socket(addr, &announced.to_be_bytes());
        // Truncated frame: announce a modest length, deliver half.
        let mut truncated = 64u32.to_be_bytes().to_vec();
        truncated.extend_from_slice(&garbage[..garbage.len().min(32)]);
        abuse_socket(addr, &truncated);
        // Deep nesting: a complete frame the decoder must refuse; the
        // coordinator drops the connection without a reply.
        let nested = deeply_nested_json(depth);
        let mut frame = u32::try_from(nested.len())
            .expect("frame length fits u32")
            .to_be_bytes()
            .to_vec();
        frame.extend_from_slice(&nested);
        let reply = abuse_socket(addr, &frame);
        prop_assert!(
            reply.is_empty(),
            "coordinator answered a {depth}-deep frame with {} bytes",
            reply.len()
        );

        // A fresh, well-formed connection is served as if nothing happened.
        let mut stream = std::net::TcpStream::connect(addr).expect("stats connection");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("read timeout");
        write_frame(&mut stream, &Request::Stats).expect("stats request writes");
        let response: Response = read_frame(&mut stream).expect("stats response arrives");
        prop_assert!(
            matches!(response, Response::Stats { .. }),
            "coordinator answered {response:?} after wire abuse"
        );
        coordinator.shutdown();
    }

    /// The HTTP listener survives garbage request lines, header floods,
    /// oversized content-length announcements, and deeply nested bodies —
    /// each abusive connection gets a 4xx or a clean close, and
    /// `GET /v1/metrics` still answers afterwards.
    #[test]
    fn http_listener_survives_hostile_bytes_on_the_wire(
        raw in proptest::collection::vec(0u32..256, 0usize..512),
        flood_lines in 70usize..120,
        depth in 20_000usize..200_000,
    ) {
        use ayb_svc::{SvcClient, SvcConfig, SvcServer};

        let garbage: Vec<u8> = raw.iter().map(|&b| b as u8).collect();

        let root = std::env::temp_dir().join(format!(
            "ayb-prop-http-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let store = ayb_store::Store::open(&root).expect("store opens");
        let mut server = SvcServer::start(
            store,
            SvcConfig {
                workers: 0,
                ..SvcConfig::default()
            },
        )
        .expect("service starts");
        let addr = server.local_addr();

        // Raw garbage where a request line belongs.
        abuse_socket(addr, &garbage);
        // A header flood beyond the per-request header cap.
        let mut flood = b"GET /v1/metrics HTTP/1.1\r\n".to_vec();
        for line in 0..flood_lines {
            flood.extend_from_slice(format!("x-flood-{line}: y\r\n").as_bytes());
        }
        flood.extend_from_slice(b"\r\n");
        abuse_socket(addr, &flood);
        // An announced body far beyond the body cap, with no body sent.
        abuse_socket(
            addr,
            b"POST /v1/runs HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n",
        );
        // A truncated body: promise 100 bytes, deliver a handful, hang up.
        abuse_socket(
            addr,
            b"POST /v1/runs HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"seed\"",
        );
        // A complete body nested far past the decoder's cap is a 400.
        let nested = deeply_nested_json(depth);
        let mut deep = format!(
            "POST /v1/runs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            nested.len()
        )
        .into_bytes();
        deep.extend_from_slice(&nested);
        let reply = abuse_socket(addr, &deep);
        prop_assert!(
            reply.starts_with(b"HTTP/1.1 400"),
            "a {depth}-deep body was answered with {:?}",
            String::from_utf8_lossy(&reply[..reply.len().min(80)])
        );

        // The listener still serves well-formed traffic.
        let client = SvcClient::new(&server.url()).expect("client url");
        let metrics = client.metrics_text().expect("metrics still served");
        prop_assert!(
            metrics.contains("ayb_svc_requests_total"),
            "metrics page lost its counters after wire abuse"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(root);
    }
}
