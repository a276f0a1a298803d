//! The decorators must not change what the program computes, and the tail
//! rule must pick the percentile the benchmark documents.

use std::sync::Arc;
use std::time::{Duration, Instant};

use refil_bench::datasets::{DatasetChoice, Scale};
use refil_bench::methods::{build_method, method_config, MethodChoice};
use refil_benchmark::stats::{tail, windowed_tail, TAIL_BEYOND, TAIL_WINDOW};
use refil_benchmark::trace::{
    Key, Role, Seam, Side, TracedLink, TracedListener, TracedStrategy, Tracer,
};
use refil_data::FdilDataset;
use refil_fed::{
    client_handshake, connect, run_clients_pumped, ClientOptions, Endpoint, FdilRunner,
    FdilStrategy, Link, NetListener, RunConfig, RunResult, Telemetry,
};

const METHODS: [MethodChoice; 3] = [
    MethodChoice::RefFiL,
    MethodChoice::RefFiLPromptOnly,
    MethodChoice::Finetune,
];

fn smoke(seed: u64) -> (FdilDataset, RunConfig, refil_continual::MethodConfig) {
    let choice = DatasetChoice::OfficeCaltech10;
    let scale = Scale::smoke();
    let ds = choice.generate(&scale, seed, false);
    let method = method_config(choice, ds.num_domains(), seed ^ 7);
    let mut cfg = choice.run_config(&scale, seed);
    cfg.threads = 2;
    (ds, cfg, method)
}

/// Everything a run computes, minus wall times.
fn semantic(r: &RunResult) -> impl PartialEq + std::fmt::Debug {
    let bytes: Vec<_> = r.rounds.iter().map(|x| x.wire_bytes.clone()).collect();
    let bits: Vec<u32> = r.final_global.iter().map(|v| v.to_bits()).collect();
    (r.domain_acc.clone(), bits, r.traffic.clone(), bytes)
}

#[test]
fn wrapped_strategies_give_byte_identical_runs() {
    let (ds, cfg, method) = smoke(3);
    for choice in METHODS {
        let mut bare = build_method(choice, method);
        let reference = FdilRunner::new(cfg).run(&ds, bare.as_mut());
        for tracer in [Tracer::counting(), Tracer::timing()] {
            let mut traced = TracedStrategy::new(
                build_method(choice, method),
                Arc::clone(&tracer),
                Role::Server,
            );
            let run = FdilRunner::new(cfg)
                .telemetry(&Telemetry::collecting())
                .run(&ds, &mut traced);
            assert_eq!(semantic(&reference), semantic(&run), "{choice:?}");
            let sessions: u64 = run.rounds.iter().map(|r| r.clients_trained).sum();
            let train = Key::Core(Role::Server, Seam::TrainClient);
            assert_eq!(tracer.calls(train), sessions, "{choice:?}");
            assert!(tracer.items(Key::Core(Role::Server, Seam::PredictDomain)) > 0);
            assert_eq!(tracer.busy_ms(train) > 0.0, tracer.is_timing());
        }
    }
}

/// One served run of `choice` with two pumped replicas, decorated or not.
fn served(
    ds: &FdilDataset,
    cfg: RunConfig,
    method: refil_continual::MethodConfig,
    choice: MethodChoice,
    tracer: Option<Arc<Tracer>>,
) -> RunResult {
    let mut cfg = cfg;
    cfg.threads = 1;
    cfg.net.min_peers = 2;
    let listener = NetListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let endpoint = listener.local_endpoint();
    let wrap = |s: Box<dyn FdilStrategy>, role| -> Box<dyn FdilStrategy> {
        match &tracer {
            Some(t) => Box::new(TracedStrategy::new(s, Arc::clone(t), role)),
            None => s,
        }
    };
    std::thread::scope(|scope| {
        let pump = scope.spawn(|| {
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut links: Vec<Box<dyn Link>> = Vec::new();
            let mut peers = Vec::new();
            let mut opts = ClientOptions::default();
            for nonce in 0..2 {
                let link = connect(&endpoint, deadline).expect("connect");
                let (peer, _, _, compression) =
                    client_handshake(&link, nonce, None, deadline).expect("handshake");
                opts.compression = compression;
                peers.push(peer);
                links.push(match &tracer {
                    Some(t) => Box::new(TracedLink::new(
                        Box::new(link),
                        Arc::clone(t),
                        Side::Replica,
                    )),
                    None => Box::new(link),
                });
            }
            let mut replicas: Vec<Box<dyn FdilStrategy>> = (0..2)
                .map(|_| wrap(build_method(choice, method), Role::Replica))
                .collect();
            for report in run_clients_pumped(
                &links,
                &peers,
                &mut replicas,
                ds,
                &cfg,
                &opts,
                &Telemetry::disabled(),
            ) {
                assert_eq!(report.expect("replica").reason, 0);
            }
        });
        let mut strategy = wrap(build_method(choice, method), Role::Server);
        let runner = FdilRunner::new(cfg);
        let result = match &tracer {
            Some(t) => runner.serve(
                ds,
                strategy.as_mut(),
                &TracedListener::new(listener, Arc::clone(t)),
                "test",
            ),
            None => runner.serve(ds, strategy.as_mut(), &listener, "test"),
        };
        pump.join().expect("pump thread");
        result
    })
}

#[test]
fn wrapped_links_and_replicas_give_byte_identical_served_runs() {
    let (ds, cfg, method) = smoke(5);
    for choice in [MethodChoice::RefFiLPromptOnly, MethodChoice::Finetune] {
        let bare = served(&ds, cfg, method, choice, None);
        let tracer = Tracer::timing();
        let traced = served(&ds, cfg, method, choice, Some(Arc::clone(&tracer)));
        assert_eq!(semantic(&bare), semantic(&traced), "{choice:?}");
        assert!(traced.rounds.iter().all(|r| r.clients_late == 0));
        for side in [Side::Server, Side::Replica] {
            for dir in [
                refil_benchmark::trace::Dir::Send,
                refil_benchmark::trace::Dir::Recv,
            ] {
                assert!(tracer.items(Key::Wire(side, dir)) > 0, "{side:?} {dir:?}");
            }
        }
        assert!(tracer.calls(Key::Core(Role::Replica, Seam::TrainClient)) > 0);
        assert_eq!(tracer.calls(Key::Core(Role::Server, Seam::TrainClient)), 0);
    }
}

#[test]
fn tail_is_highest_percentile_with_ten_beyond() {
    let pick = |n: usize| tail(&(1..=n).map(|i| i as f64).collect::<Vec<_>>());
    assert_eq!(pick(TAIL_BEYOND).map(|t| t.pct), None);
    assert_eq!(pick(20).map(|t| (t.pct, t.value)), Some((50, 10.0)));
    assert_eq!(pick(50).map(|t| (t.pct, t.value)), Some((80, 40.0)));
    assert_eq!(pick(100).map(|t| (t.pct, t.value)), Some((90, 90.0)));
    assert_eq!(pick(1000).map(|t| (t.pct, t.value)), Some((99, 990.0)));
    for n in TAIL_BEYOND + 1..400 {
        let t = pick(n).expect("enough samples");
        let beyond = |pct: u32| n - (pct as usize * n).div_ceil(100);
        assert!(beyond(t.pct) >= TAIL_BEYOND, "n={n}");
        assert!(t.pct == 99 || beyond(t.pct + 1) < TAIL_BEYOND, "n={n}");
        assert_eq!(t.value, (n - beyond(t.pct)) as f64, "n={n}");
    }
}

#[test]
fn tail_ignores_input_order() {
    let mut values: Vec<f64> = (0..60).map(|i| ((i * 37) % 60) as f64).collect();
    let sorted_tail = tail(&values);
    values.reverse();
    assert_eq!(tail(&values), sorted_tail);
}

#[test]
fn windowed_tail_is_the_median_of_each_windows_p80() {
    let ramp: Vec<f64> = (1..=2 * TAIL_WINDOW).map(|i| i as f64).collect();
    let (t, windows) = windowed_tail(&ramp).expect("two windows");
    assert_eq!((t.pct, windows), (80, 2));
    assert_eq!(t.value, (40.0 + 90.0) / 2.0);
    // A burst in one of three windows does not move the median, and a
    // trailing partial window is left out.
    let mut steps = vec![1.0; 3 * TAIL_WINDOW + 7];
    steps[TAIL_WINDOW..2 * TAIL_WINDOW].fill(100.0);
    assert_eq!(
        windowed_tail(&steps).map(|(t, n)| (t.value, n)),
        Some((1.0, 3))
    );
    assert!(windowed_tail(&ramp[..TAIL_WINDOW - 1]).is_none());
}
