//! Golden oracle for the flit-level router engine (`FlitNetwork`).
//!
//! The flit engine has no frozen reference implementation, so this
//! table is its bit-identity contract: every case pins the measured
//! packet count, backlog, saturation verdict and the exact bits of the
//! average latency. The values were recorded from the original
//! `VecDeque`-per-VC engine that scanned every router every cycle; any
//! rewrite of the hot loop must reproduce them exactly, including the
//! RNG draw order and the router/output visiting order. Never edit a
//! value to make a change pass.

use cryowire_noc::{FlitConfig, FlitNetwork, FlitSimResult, NocKind, RouterClass, TrafficPattern};

/// One pinned run: configuration, run arguments and expected result.
struct Case {
    name: &'static str,
    config: FlitConfig,
    pattern: TrafficPattern,
    rate: f64,
    cycles: u64,
    warmup: u64,
    seed: u64,
    /// `(packets, backlog, saturated, avg_latency.to_bits())`.
    expect: (u64, u64, bool, u64),
}

fn config(kind: NocKind, class: RouterClass, packet_flits: usize) -> FlitConfig {
    FlitConfig {
        kind,
        packet_flits,
        ..FlitConfig::table4_mesh64(class)
    }
}

const HOTSPOT: TrafficPattern = TrafficPattern::Hotspot {
    node: 27,
    fraction: 0.3,
};
const BURST: TrafficPattern = TrafficPattern::Burst {
    burst_len: 40.0,
    intensity: 4.0,
};

#[allow(clippy::too_many_lines)]
fn cases() -> Vec<Case> {
    use NocKind::{CMesh, FlattenedButterfly as Fb, Mesh};
    use RouterClass::{OneCycle, ThreeCycle};
    use TrafficPattern::{BitReverse, Transpose, UniformRandom};
    let case = |name,
                config,
                pattern,
                rate,
                (cycles, warmup, seed): (u64, u64, u64),
                expect: (u64, u64, bool, u64)| Case {
        name,
        config,
        pattern,
        rate,
        cycles,
        warmup,
        seed,
        expect,
    };
    vec![
        case(
            "mesh-1c-uniform-light-w0",
            config(Mesh, OneCycle, 1),
            UniformRandom,
            0.002,
            (3_000, 0, 1),
            (381, 1, false, 0x4029_b20e_c83b_20ed),
        ),
        case(
            "mesh-1c-uniform-moderate",
            config(Mesh, OneCycle, 1),
            UniformRandom,
            0.05,
            (3_000, 500, 7),
            (8019, 45, false, 0x4029_4a28_ed42_b08a),
        ),
        case(
            "mesh-1c-uniform-saturating",
            config(Mesh, OneCycle, 1),
            UniformRandom,
            0.4,
            (2_000, 500, 3),
            (29383, 9128, true, 0x4064_c2b0_a33c_dfd8),
        ),
        case(
            "mesh-1c-uniform-5flit-saturating-w0",
            config(Mesh, OneCycle, 5),
            UniformRandom,
            0.5,
            (1_500, 0, 5),
            (5158, 43023, true, 0x4085_11d8_7e43_4cee),
        ),
        case(
            "mesh-3c-transpose-moderate",
            config(Mesh, ThreeCycle, 1),
            Transpose,
            0.05,
            (3_000, 500, 11),
            (7899, 96, false, 0x403b_fb9f_f071_8fcd),
        ),
        case(
            "mesh-3c-hotspot-5flit-w0",
            config(Mesh, ThreeCycle, 5),
            HOTSPOT,
            0.05,
            (3_000, 0, 13),
            (2054, 7546, true, 0x4084_b7f0_0bf7_06bb),
        ),
        case(
            "mesh-1c-burst-5flit-light",
            config(Mesh, OneCycle, 5),
            BURST,
            0.002,
            (3_000, 500, 17),
            (329, 0, false, 0x4031_2876_4607_c7fa),
        ),
        case(
            "mesh-3c-bitreverse-saturating",
            config(Mesh, ThreeCycle, 1),
            BitReverse,
            0.3,
            (2_000, 500, 19),
            (8859, 22238, true, 0x406b_b584_7e56_a23b),
        ),
        case(
            "cmesh-1c-uniform-moderate",
            config(CMesh, OneCycle, 1),
            UniformRandom,
            0.05,
            (3_000, 500, 23),
            (7959, 20, false, 0x401d_41c6_f087_5984),
        ),
        case(
            "cmesh-3c-transpose-5flit-saturating-w0",
            config(CMesh, ThreeCycle, 5),
            Transpose,
            0.3,
            (2_000, 0, 29),
            (2077, 36064, true, 0x4087_45ad_6b5a_d6b6),
        ),
        case(
            "cmesh-1c-hotspot-light",
            config(CMesh, OneCycle, 1),
            HOTSPOT,
            0.002,
            (3_000, 500, 31),
            (322, 0, false, 0x401b_0197_0e4f_80cc),
        ),
        case(
            "cmesh-3c-burst-moderate",
            config(CMesh, ThreeCycle, 1),
            BURST,
            0.05,
            (3_000, 500, 37),
            (7940, 0, false, 0x403c_82c5_d5f4_e8a8),
        ),
        case(
            "fb-1c-uniform-5flit-moderate",
            config(Fb, OneCycle, 5),
            UniformRandom,
            0.05,
            (3_000, 500, 41),
            (5142, 3138, true, 0x4065_e96d_a102_174d),
        ),
        case(
            "fb-3c-burst-saturating",
            config(Fb, ThreeCycle, 1),
            BURST,
            0.3,
            (2_000, 500, 43),
            (18203, 6181, false, 0x405e_2dea_085a_91d7),
        ),
        case(
            "fb-1c-transpose-light-w0",
            config(Fb, OneCycle, 1),
            Transpose,
            0.002,
            (3_000, 0, 47),
            (403, 0, false, 0x4015_5c1b_f34b_97d2),
        ),
        case(
            "fb-3c-hotspot-5flit-moderate",
            config(Fb, ThreeCycle, 5),
            HOTSPOT,
            0.05,
            (3_000, 500, 53),
            (1214, 7900, true, 0x4083_fa4b_1222_954c),
        ),
        case(
            "mesh16-1c-2vc-2deep-uniform-saturating",
            FlitConfig {
                nodes: 16,
                vcs: 2,
                vc_buffer_flits: 2,
                ..config(Mesh, OneCycle, 5)
            },
            UniformRandom,
            0.35,
            (2_000, 500, 59),
            (51, 8638, true, 0x4095_9d69_6969_6969),
        ),
        case(
            "cmesh16-3c-6vc-uniform-moderate",
            FlitConfig {
                nodes: 16,
                vcs: 6,
                vc_buffer_flits: 1,
                ..config(CMesh, ThreeCycle, 1)
            },
            UniformRandom,
            0.05,
            (3_000, 500, 61),
            (2069, 20, false, 0x402b_3a86_5f45_e87e),
        ),
    ]
}

fn observed(r: &FlitSimResult) -> (u64, u64, bool, u64) {
    (r.packets, r.backlog, r.saturated, r.avg_latency.to_bits())
}

fn run(net: &mut FlitNetwork, c: &Case) -> FlitSimResult {
    net.run(c.pattern, c.rate, c.cycles, c.warmup, c.seed)
        .expect("valid golden case")
}

#[test]
fn flit_engine_matches_golden_table() {
    let mut mismatches = Vec::new();
    for c in cases() {
        let mut net = FlitNetwork::new(c.config).expect("valid golden config");
        let r = run(&mut net, &c);
        assert_eq!(r.offered_rate.to_bits(), c.rate.to_bits(), "{}", c.name);
        let got = observed(&r);
        if got != c.expect {
            mismatches.push(format!(
                "{}: expected {:?}, got ({}, {}, {}, 0x{:016x}) [avg latency {}]",
                c.name, c.expect, got.0, got.1, got.2, got.3, r.avg_latency
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "flit engine drifted from its golden table:\n{}",
        mismatches.join("\n")
    );
}

/// A network reused across runs must reset completely: a second `run`
/// with different arguments matches its pinned value, and re-running
/// the first case afterwards reproduces the first result.
#[test]
fn back_to_back_runs_reset_state() {
    let all = cases();
    let first = all
        .iter()
        .find(|c| c.name == "mesh-1c-uniform-saturating")
        .expect("case exists");
    let second = Case {
        name: "mesh-1c-uniform-moderate-after-saturating",
        config: first.config,
        pattern: TrafficPattern::Transpose,
        rate: 0.05,
        cycles: 2_500,
        warmup: 250,
        seed: 67,
        expect: (7084, 54, false, 0x402b_c859_0b21_642d),
    };
    let mut net = FlitNetwork::new(first.config).expect("valid config");
    let a = run(&mut net, first);
    assert_eq!(observed(&a), first.expect, "first run: {a:?}");
    let b = run(&mut net, &second);
    let got = observed(&b);
    assert_eq!(
        got, second.expect,
        "back-to-back run: got ({}, {}, {}, 0x{:016x}) [avg latency {}]",
        got.0, got.1, got.2, got.3, b.avg_latency
    );
    let mut fresh = FlitNetwork::new(second.config).expect("valid config");
    assert_eq!(
        run(&mut fresh, &second),
        b,
        "reuse must equal a fresh network"
    );
    assert_eq!(run(&mut net, first), a, "re-running the first case");
}
