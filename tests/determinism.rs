//! Cross-thread determinism of the federated runner.
//!
//! The `FdilRunner` contract is that worker-thread count is an execution
//! detail: all per-round randomness is pre-drawn on the driver thread and
//! session outputs are merged in client-id order, so a parallel run must be
//! *byte-identical* to a sequential one — same final global model, same
//! accuracy matrix, same traffic accounting. These tests pin that contract
//! for the full RefFiL method and a baseline, across seeds and under
//! client dropout, and pin that routing every exchange through encoded
//! frames over a socket changes nothing either.

use std::time::{Duration, Instant};

use refil::continual::{Finetune, MethodConfig};
use refil::core::{RefFiL, RefFiLConfig};
use refil::data::{DatasetSpec, DomainSpec, FdilDataset};
use refil::fed::{
    client_handshake, connect, run_clients_pumped, ClientOptions, Endpoint, FdilRunner,
    FdilStrategy, IncrementConfig, Link, NetListener, RunConfig, RunResult, Telemetry, WireConfig,
    WireQuant,
};
use refil::nn::models::{BackboneConfig, ExtractorKind};

fn dataset() -> FdilDataset {
    DatasetSpec {
        name: "det".into(),
        classes: 3,
        feature_dim: 8,
        proto_scale: 2.5,
        within_std: 0.4,
        test_fraction: 0.3,
        signature_dim: 2,
        signature_scale: 0.6,
        domains: vec![
            DomainSpec::new("d0", 150, 0.15, 0.05),
            DomainSpec::new("d1", 150, 0.3, 0.4).with_collision(1.0),
        ],
    }
    .generate(11)
}

fn method() -> MethodConfig {
    MethodConfig {
        backbone: BackboneConfig {
            in_dim: 8,
            extractor_width: 16,
            extractor_depth: 1,
            n_patches: 2,
            token_dim: 8,
            heads: 2,
            blocks: 1,
            classes: 3,
            extractor: ExtractorKind::ResidualMlp,
        },
        lr: 0.05,
        prompt_len: 2,
        max_tasks: 2,
        ..MethodConfig::default()
    }
}

fn run_cfg(seed: u64, dropout: f32) -> RunConfig {
    RunConfig {
        increment: IncrementConfig {
            initial_clients: 4,
            select_per_round: 3,
            increment_per_task: 1,
            transition_fraction: 0.8,
            rounds_per_task: 3,
        },
        local_epochs: 1,
        batch_size: 16,
        quantity_sigma: 0.5,
        eval_batch: 128,
        dropout_prob: dropout,
        seed,
        threads: 0,
        net: Default::default(),
        wire: Default::default(),
    }
}

fn run_at(
    threads: usize,
    cfg: RunConfig,
    ds: &FdilDataset,
    strat: &mut dyn FdilStrategy,
) -> RunResult {
    FdilRunner::new(cfg).threads(threads).run(ds, strat)
}

fn assert_byte_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.final_global, b.final_global, "final_global diverged");
    assert_eq!(a.domain_acc, b.domain_acc, "domain_acc diverged");
    assert_eq!(a.traffic, b.traffic, "traffic stats diverged");
}

#[test]
fn reffil_parallel_matches_sequential_across_seeds() {
    let ds = dataset();
    for seed in [13u64, 29] {
        let cfg = run_cfg(seed, 0.0);
        let mut s1 = RefFiL::new(RefFiLConfig::new(method()));
        let r1 = run_at(1, cfg, &ds, &mut s1);
        let mut s4 = RefFiL::new(RefFiLConfig::new(method()));
        let r4 = run_at(4, cfg, &ds, &mut s4);
        assert_byte_identical(&r1, &r4);
        // The post-round merge path (prompt uploads) must also converge to
        // the same server state.
        assert_eq!(
            s1.prompt_store().total_reps(),
            s4.prompt_store().total_reps(),
            "prompt store diverged at seed {seed}"
        );
    }
}

#[test]
fn finetune_parallel_matches_sequential_across_seeds() {
    let ds = dataset();
    for seed in [13u64, 29] {
        let cfg = run_cfg(seed, 0.0);
        let mut s1 = Finetune::new(method());
        let r1 = run_at(1, cfg, &ds, &mut s1);
        let mut s4 = Finetune::new(method());
        let r4 = run_at(4, cfg, &ds, &mut s4);
        assert_byte_identical(&r1, &r4);
    }
}

/// Serves one run over a localhost TCP socket to two client replicas pumped
/// from a second thread, so every exchange is encoded into frames, written
/// to the socket and decoded on the other side.
fn served_run(
    cfg: RunConfig,
    ds: &FdilDataset,
    server: &mut dyn FdilStrategy,
    replica: impl Fn() -> Box<dyn FdilStrategy> + Sync,
) -> RunResult {
    let mut cfg = cfg;
    cfg.net.min_peers = 2;
    let listener = NetListener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
    let endpoint = listener.local_endpoint();
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
                links.push(Box::new(link));
            }
            let mut replicas: Vec<Box<dyn FdilStrategy>> = (0..2).map(|_| replica()).collect();
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
        let result = FdilRunner::new(cfg).serve(ds, server, &listener, "determinism");
        pump.join().expect("pump thread");
        result
    })
}

fn assert_same_wire_ledger(a: &RunResult, b: &RunResult) {
    assert_eq!(a.rounds.len(), b.rounds.len());
    for (x, y) in a.rounds.iter().zip(&b.rounds) {
        assert_eq!(x.wire_bytes, y.wire_bytes, "per-round wire bytes diverged");
        assert_eq!(x.uplink_raw_bytes, y.uplink_raw_bytes);
        assert_eq!(x.uplink_encoded_bytes, y.uplink_encoded_bytes);
        assert_eq!(
            x.clients_late, 0,
            "healthy served run reported late sessions"
        );
    }
}

#[test]
fn wire_path_matches_direct_path_across_seeds() {
    // Routing every exchange through encoded frames over a socket must be
    // byte-identical to the direct in-process path, which moves typed
    // messages in memory and only sizes them, for both the full RefFiL
    // protocol (which adds GlobalPromptBroadcast / PromptUpload frames) and
    // a plain baseline, while both paths account identical encoded-frame
    // traffic.
    let ds = dataset();
    for seed in [13u64, 29] {
        let cfg = run_cfg(seed, 0.0);

        let mut s_direct = RefFiL::new(RefFiLConfig::new(method()));
        let r_direct = FdilRunner::new(cfg).run(&ds, &mut s_direct);
        let mut s_wire = RefFiL::new(RefFiLConfig::new(method()));
        let r_wire = served_run(cfg, &ds, &mut s_wire, || {
            Box::new(RefFiL::new(RefFiLConfig::new(method())))
        });
        assert_byte_identical(&r_wire, &r_direct);
        assert_same_wire_ledger(&r_wire, &r_direct);
        assert_eq!(
            s_wire.prompt_store().total_reps(),
            s_direct.prompt_store().total_reps(),
            "prompt store diverged between wire and direct paths at seed {seed}"
        );

        let mut f_direct = Finetune::new(method());
        let f_r_direct = FdilRunner::new(cfg).run(&ds, &mut f_direct);
        let mut f_wire = Finetune::new(method());
        let f_r_wire = served_run(cfg, &ds, &mut f_wire, || Box::new(Finetune::new(method())));
        assert_byte_identical(&f_r_wire, &f_r_direct);
        assert_same_wire_ledger(&f_r_wire, &f_r_direct);
    }
}

#[test]
fn lossless_wire_spec_matches_direct_path() {
    // `WireConfig { delta: false, quant: None, topk_fraction: 1.0 }` is the
    // identity spec: the compression layer must never engage, so the run is
    // byte-identical to the direct path under the default config, for the
    // full RefFiL protocol and a plain baseline, with every update moving as
    // a dense frame.
    let ds = dataset();
    for seed in [13u64, 29] {
        let plain = run_cfg(seed, 0.0);
        let mut identity = plain;
        identity.wire = WireConfig {
            delta: false,
            quant: WireQuant::None,
            topk_fraction: 1.0,
        };

        let mut s_plain = RefFiL::new(RefFiLConfig::new(method()));
        let r_plain = FdilRunner::new(plain).run(&ds, &mut s_plain);
        let mut s_identity = RefFiL::new(RefFiLConfig::new(method()));
        let r_identity = FdilRunner::new(identity).run(&ds, &mut s_identity);
        assert_byte_identical(&r_plain, &r_identity);
        assert_eq!(
            s_plain.prompt_store().total_reps(),
            s_identity.prompt_store().total_reps(),
            "prompt store diverged under the identity spec at seed {seed}"
        );

        let mut f_plain = Finetune::new(method());
        let f_r_plain = FdilRunner::new(plain).run(&ds, &mut f_plain);
        let mut f_identity = Finetune::new(method());
        let f_r_identity = FdilRunner::new(identity).run(&ds, &mut f_identity);
        assert_byte_identical(&f_r_plain, &f_r_identity);

        // No update went through the compressed frame kind: raw == encoded
        // on every round.
        for r in r_identity.rounds.iter().chain(&f_r_identity.rounds) {
            assert_eq!(r.uplink_raw_bytes, r.uplink_encoded_bytes);
            assert!(!r.wire_bytes.contains_key("compressed_model_update"));
        }
    }
}

#[test]
fn compressed_runs_are_thread_count_invariant() {
    // Lossy compression (delta + int8 + top-k) is still deterministic: all
    // randomness is pre-drawn and quantization/tie-breaking are fixed-order,
    // so worker count stays an execution detail with the codec active.
    let ds = dataset();
    let mut cfg = run_cfg(13, 0.0);
    cfg.wire = WireConfig {
        delta: true,
        quant: WireQuant::Int8,
        topk_fraction: 0.5,
    };
    let mut s1 = RefFiL::new(RefFiLConfig::new(method()));
    let r1 = run_at(1, cfg, &ds, &mut s1);
    let mut s4 = RefFiL::new(RefFiLConfig::new(method()));
    let r4 = run_at(4, cfg, &ds, &mut s4);
    assert_byte_identical(&r1, &r4);
    // And the codec genuinely engaged: encoded uplink well under dense.
    let raw: u64 = r1.rounds.iter().map(|r| r.uplink_raw_bytes).sum();
    let encoded: u64 = r1.rounds.iter().map(|r| r.uplink_encoded_bytes).sum();
    assert!(raw > 0 && encoded > 0);
    assert!(
        encoded * 2 < raw,
        "compression should have engaged (raw {raw}, encoded {encoded})"
    );
}

#[test]
fn parallel_matches_sequential_under_dropout() {
    // Dropout draws are part of the pre-drawn randomness; simulated client
    // failures must hit the same clients at any thread count.
    let ds = dataset();
    let cfg = run_cfg(13, 0.4);
    let mut s1 = Finetune::new(method());
    let r1 = run_at(1, cfg, &ds, &mut s1);
    let mut s4 = Finetune::new(method());
    let r4 = run_at(4, cfg, &ds, &mut s4);
    assert_byte_identical(&r1, &r4);
}
