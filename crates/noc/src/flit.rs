//! Flit-level, virtual-channel, credit-flow-controlled router simulation —
//! the fully detailed counterpart of the reservation engine in [`crate::sim`].
//!
//! Implements the router the paper's Table 4 specifies: wormhole switching
//! with **4 virtual channels per input, 3-flit buffers per VC**, XY
//! (dimension-ordered) routing, credit-based flow control, and a 1- or
//! 3-cycle router pipeline. Multi-flit packets model the cache-line data
//! the snooping comparison carries.
//!
//! The engine is used to cross-validate the cheaper reservation model
//! (see `ablations::tests::engines_agree_at_low_load` and the ablation
//! experiment in the facade crate). It has no frozen reference engine:
//! the golden table in `tests/flit_golden.rs` pins its exact output.
//!
//! All topology work happens once, in [`FlitNetwork::new`]: a flat
//! next-hop table, and for every port the port at the other end of its
//! link. Each cycle then works only where flits are. Every input VC keeps
//! its head flit's wanted output and eligible cycle, each output counts
//! the heads that want it, and each router counts its buffered flits, so
//! switch allocation skips idle routers and idle outputs outright. The
//! buffers, credits and injection queues are reset in place, so a reused
//! network runs without allocating.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::NocError;
use crate::router::RouterClass;
use crate::topology::{NocKind, Topology};
use crate::traffic::TrafficPattern;

/// No port: the local port's peer, and the wanted output of an empty VC.
const NONE: usize = usize::MAX;

/// Configuration of a flit-level network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlitConfig {
    /// Topology kind (must be router-based).
    pub kind: NocKind,
    /// Number of cores.
    pub nodes: usize,
    /// Router pipeline class.
    pub class: RouterClass,
    /// Virtual channels per input port (Table 4: 4).
    pub vcs: usize,
    /// Buffer depth per VC in flits (Table 4: 3).
    pub vc_buffer_flits: usize,
    /// Flits per packet (1 for control, 5 for a 64 B line behind a head).
    pub packet_flits: usize,
}

impl FlitConfig {
    /// The paper's Table 4 mesh router at 64 cores.
    #[must_use]
    pub fn table4_mesh64(class: RouterClass) -> Self {
        FlitConfig {
            kind: NocKind::Mesh,
            nodes: 64,
            class,
            vcs: 4,
            vc_buffer_flits: 3,
            packet_flits: 1,
        }
    }
}

/// One flit buffered at a router input VC.
#[derive(Debug, Clone, Copy, Default)]
struct Flit {
    /// Cycle the flit becomes eligible for switch allocation (models the
    /// router pipeline depth).
    ready: u64,
    injected_at: u64,
    dst_router: usize,
    is_tail: bool,
}

/// A packet waiting at its source for space in the local injection VC.
#[derive(Debug, Clone, Copy)]
struct Pending {
    dst_router: usize,
    injected_at: u64,
    /// Flits not yet injected.
    flits_left: usize,
}

/// One input-VC FIFO: a fixed-capacity ring window of
/// [`FlitNetwork::flits`].
#[derive(Debug, Clone, Copy)]
struct Ring {
    base: usize,
    cap: usize,
    head: usize,
    len: usize,
}

/// Result of a flit-level run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlitSimResult {
    /// Offered per-node injection rate (packets/node/cycle).
    pub offered_rate: f64,
    /// Average packet latency (injection to tail ejection), cycles.
    pub avg_latency: f64,
    /// Packets measured.
    pub packets: u64,
    /// Packets still stuck in the network at the end (backlog).
    pub backlog: u64,
    /// Whether the run saturated (latency blow-up or large backlog).
    pub saturated: bool,
}

/// The flit-level network simulator.
///
/// Ports are numbered globally: router `r` owns ports
/// `port_base[r]..port_base[r + 1]`, its port 0 being the local
/// injection/ejection port and the rest one per neighbour (each port is
/// both an input and an output). Input VC `vc` of global port `p` is
/// slot `p * vcs + vc`, so a router's slots are contiguous and in the
/// (input, VC) order its round-robin arbiters scan.
#[derive(Debug, Clone)]
pub struct FlitNetwork {
    config: FlitConfig,
    topo: Topology,
    router_grid: Topology,

    /// Router serving each core.
    core_router: Vec<usize>,
    /// First global port of each router, plus the total port count.
    port_base: Vec<usize>,
    /// Router owning each global port.
    port_router: Vec<usize>,
    /// `route[rid * routers + dst]`: router-local output port at `rid`
    /// toward router `dst` (0 = ejection).
    route: Vec<usize>,
    /// Global port at the far end of each port's link ([`NONE`] for
    /// local ports). Links are symmetric, so one table serves both
    /// directions: output `p` delivers into input `peer[p]`, and a flit
    /// leaving input `p` returns its credit to output `peer[p]`.
    peer: Vec<usize>,

    /// Every input-VC buffer, one ring window per slot.
    flits: Vec<Flit>,
    /// Per slot: its ring.
    rings: Vec<Ring>,
    /// Per slot: the router-local output its head flit wants ([`NONE`]
    /// when empty), and the cycle that head becomes eligible.
    head_out: Vec<usize>,
    head_ready: Vec<u64>,
    /// Per global output port: head flits that want it.
    demand: Vec<usize>,
    /// Per router: flits buffered at its inputs.
    buffered: Vec<usize>,
    /// Per global output port × VC: credits for the downstream buffer.
    credits: Vec<usize>,
    /// Per global output port: round-robin pointer (router-local slot).
    rr: Vec<usize>,
    /// Per core: packets waiting for the local injection VC.
    pending: Vec<VecDeque<Pending>>,
}

/// Output neighbours of router `id`, in port order (ports 1..).
fn neighbors(kind: NocKind, grid: &Topology, id: usize) -> Vec<usize> {
    let side = grid.side();
    let (x, y) = grid.coords(id);
    match kind {
        // Fully connected within row and column.
        NocKind::FlattenedButterfly => (0..side)
            .filter(|&nx| nx != x)
            .map(|nx| grid.node_at(nx, y))
            .chain(
                (0..side)
                    .filter(|&ny| ny != y)
                    .map(|ny| grid.node_at(x, ny)),
            )
            .collect(),
        _ => {
            let mut out = Vec::with_capacity(4);
            if x + 1 < side {
                out.push(grid.node_at(x + 1, y));
            }
            if x > 0 {
                out.push(grid.node_at(x - 1, y));
            }
            if y + 1 < side {
                out.push(grid.node_at(x, y + 1));
            }
            if y > 0 {
                out.push(grid.node_at(x, y - 1));
            }
            out
        }
    }
}

/// Dimension-ordered (X first) next router from `router` toward a
/// different router `dst`.
fn next_hop(kind: NocKind, grid: &Topology, router: usize, dst: usize) -> usize {
    let (x, y) = grid.coords(router);
    let (dx, dy) = grid.coords(dst);
    match kind {
        NocKind::FlattenedButterfly => {
            if x != dx {
                grid.node_at(dx, y)
            } else {
                grid.node_at(x, dy)
            }
        }
        _ => {
            if x != dx {
                let nx = if dx > x { x + 1 } else { x - 1 };
                grid.node_at(nx, y)
            } else {
                let ny = if dy > y { y + 1 } else { y - 1 };
                grid.node_at(x, ny)
            }
        }
    }
}

impl FlitNetwork {
    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Returns [`NocError`] for bus kinds or invalid node counts.
    pub fn new(config: FlitConfig) -> Result<Self, NocError> {
        if config.kind.is_bus() {
            return Err(NocError::InvalidNodeCount {
                nodes: config.nodes,
                requirement: "flit simulation models router-based NoCs",
            });
        }
        let topo = Topology::square(config.nodes)?;
        let concentration = match config.kind {
            NocKind::Mesh => 1,
            _ => 4,
        };
        let router_grid = Topology::square(config.nodes / concentration)?;
        let routers = router_grid.nodes();
        let core_router = (0..config.nodes)
            .map(|core| {
                if concentration == 1 {
                    return core;
                }
                let (x, y) = topo.coords(core);
                router_grid.node_at(x / 2, y / 2)
            })
            .collect();

        // Per router: the router each port links to (port 0 = local).
        let links: Vec<Vec<usize>> = (0..routers)
            .map(|id| {
                let mut ports = vec![NONE];
                ports.extend(neighbors(config.kind, &router_grid, id));
                ports
            })
            .collect();
        let port_to = |at: usize, toward: usize| {
            links[at]
                .iter()
                .position(|&d| d == toward)
                .expect("topology is connected and channels are symmetric")
        };
        let mut port_base = vec![0];
        for ports in &links {
            port_base.push(port_base[port_base.len() - 1] + ports.len());
        }
        let n_ports = port_base[routers];
        let mut port_router = vec![0; n_ports];
        let mut peer = vec![NONE; n_ports];
        for (rid, ports) in links.iter().enumerate() {
            for (p, &to) in ports.iter().enumerate() {
                port_router[port_base[rid] + p] = rid;
                if to != NONE {
                    peer[port_base[rid] + p] = port_base[to] + port_to(to, rid);
                }
            }
        }
        let mut route = vec![0; routers * routers];
        for rid in 0..routers {
            for dst in (0..routers).filter(|&d| d != rid) {
                route[rid * routers + dst] =
                    port_to(rid, next_hop(config.kind, &router_grid, rid, dst));
            }
        }

        // Non-local VCs hold at most `vc_buffer_flits` (credit flow
        // control); the local port injects into VC 0 only, up to the
        // whole input's `vcs * vc_buffer_flits`.
        let vcs = config.vcs;
        let mut rings = Vec::with_capacity(n_ports * vcs);
        let mut base = 0;
        for &far in &peer {
            let local = far == NONE;
            for vc in 0..vcs {
                let cap = match (local, vc) {
                    (false, _) => config.vc_buffer_flits,
                    (true, 0) => vcs * config.vc_buffer_flits,
                    (true, _) => 0,
                };
                rings.push(Ring {
                    base,
                    cap,
                    head: 0,
                    len: 0,
                });
                base += cap;
            }
        }

        Ok(FlitNetwork {
            config,
            topo,
            router_grid,
            core_router,
            port_base,
            port_router,
            route,
            peer,
            flits: vec![Flit::default(); base],
            rings,
            head_out: vec![NONE; n_ports * vcs],
            head_ready: vec![0; n_ports * vcs],
            demand: vec![0; n_ports],
            buffered: vec![0; routers],
            credits: vec![config.vc_buffer_flits; n_ports * vcs],
            rr: vec![0; n_ports],
            pending: vec![VecDeque::new(); config.nodes],
        })
    }

    /// Empties every buffer and restores credits and arbiters, keeping
    /// all allocations.
    fn reset(&mut self) {
        for ring in &mut self.rings {
            ring.head = 0;
            ring.len = 0;
        }
        self.head_out.fill(NONE);
        self.demand.fill(0);
        self.buffered.fill(0);
        self.credits.fill(self.config.vc_buffer_flits);
        self.rr.fill(0);
        for queue in &mut self.pending {
            queue.clear();
        }
    }

    /// Makes `flit` the head of input-VC `slot` at router `rid`.
    fn set_head(&mut self, rid: usize, slot: usize, flit: Flit) {
        let out = self.route[rid * self.router_grid.nodes() + flit.dst_router];
        self.head_out[slot] = out;
        self.head_ready[slot] = flit.ready;
        self.demand[self.port_base[rid] + out] += 1;
    }

    /// Appends `flit` to input-VC `slot` at router `rid`.
    fn push(&mut self, rid: usize, slot: usize, flit: Flit) {
        let ring = &mut self.rings[slot];
        debug_assert!(ring.len < ring.cap, "credits bound every VC buffer");
        let mut at = ring.head + ring.len;
        if at >= ring.cap {
            at -= ring.cap;
        }
        self.flits[ring.base + at] = flit;
        ring.len += 1;
        self.buffered[rid] += 1;
        if ring.len == 1 {
            self.set_head(rid, slot, flit);
        }
    }

    /// Pops the head of input-VC `slot` at router `rid`, exposing the
    /// next flit (if any) to the outputs still to allocate this cycle.
    fn pop(&mut self, rid: usize, slot: usize) -> Flit {
        let ring = &mut self.rings[slot];
        let flit = self.flits[ring.base + ring.head];
        ring.head += 1;
        if ring.head == ring.cap {
            ring.head = 0;
        }
        ring.len -= 1;
        let next = (ring.len > 0).then(|| self.flits[ring.base + ring.head]);
        self.buffered[rid] -= 1;
        self.demand[self.port_base[rid] + self.head_out[slot]] -= 1;
        match next {
            Some(next) => self.set_head(rid, slot, next),
            None => self.head_out[slot] = NONE,
        }
        flit
    }

    /// Round-robin switch allocation for output `out` of router `rid`:
    /// the first router-local slot, from the output's pointer on, whose
    /// head flit is eligible, wants `out`, and has a downstream credit
    /// (ejection is an infinite sink).
    fn arbitrate(&self, rid: usize, out: usize, cycle: u64) -> Option<usize> {
        let vcs = self.config.vcs;
        let gout = self.port_base[rid] + out;
        let slots = self.port_base[rid] * vcs..self.port_base[rid + 1] * vcs;
        let head_out = &self.head_out[slots.clone()];
        let head_ready = &self.head_ready[slots];
        let credits = &self.credits[gout * vcs..(gout + 1) * vcs];
        let start = self.rr[gout];
        (start..head_out.len()).chain(0..start).find(|&idx| {
            head_out[idx] == out && head_ready[idx] <= cycle && (out == 0 || credits[idx % vcs] > 0)
        })
    }

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::InvalidInjectionRate`] for rates outside [0, 1].
    pub fn run(
        &mut self,
        pattern: TrafficPattern,
        rate: f64,
        cycles: u64,
        warmup: u64,
        seed: u64,
    ) -> Result<FlitSimResult, NocError> {
        if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
            return Err(NocError::InvalidInjectionRate { rate });
        }
        pattern.validate(&self.topo)?;
        self.reset();
        let mut rng = StdRng::seed_from_u64(seed);
        let pipeline = self.config.class.cycles();
        let vcs = self.config.vcs;
        let injection_cap = vcs * self.config.vc_buffer_flits;
        let routers = self.router_grid.nodes();
        let mut generated: u64 = 0;
        let mut total_latency: u64 = 0;
        let mut measured: u64 = 0;
        let mut in_network: u64 = 0;
        let mut zero_latency_sum: f64 = 0.0;

        for cycle in 0..cycles {
            // 1. Generate new packets: one gate draw per node, then the
            //    pattern's destination draws.
            let p = rate * pattern.burst_scale(cycle);
            for src in 0..self.topo.nodes() {
                if rng.gen::<f64>() < p {
                    let dst = pattern.destination(src, &self.topo, &mut rng);
                    let dst_router = self.core_router[dst];
                    if self.config.packet_flits > 0 {
                        self.pending[src].push_back(Pending {
                            dst_router,
                            injected_at: cycle,
                            flits_left: self.config.packet_flits,
                        });
                    }
                    generated += 1;
                    in_network += 1;
                    zero_latency_sum += self
                        .router_grid
                        .manhattan_hops(self.core_router[src], dst_router)
                        as f64;
                }
            }

            // 2. Inject pending flits into the local input VC 0 if space.
            for src in 0..self.topo.nodes() {
                let rid = self.core_router[src];
                let slot = self.port_base[rid] * vcs;
                while let Some(packet) = self.pending[src].front_mut() {
                    if self.rings[slot].len >= injection_cap {
                        break;
                    }
                    packet.flits_left -= 1;
                    let flit = Flit {
                        ready: cycle + pipeline,
                        injected_at: packet.injected_at,
                        dst_router: packet.dst_router,
                        is_tail: packet.flits_left == 0,
                    };
                    if flit.is_tail {
                        self.pending[src].pop_front();
                    }
                    self.push(rid, slot, flit);
                }
            }

            // 3. Switch allocation: each output of each busy router picks
            //    one eligible (input, VC) head flit, round-robin, in
            //    router then output order.
            for rid in 0..routers {
                if self.buffered[rid] == 0 {
                    continue;
                }
                let first_port = self.port_base[rid];
                let n_slots = (self.port_base[rid + 1] - first_port) * vcs;
                for out in 0..self.port_base[rid + 1] - first_port {
                    let gout = first_port + out;
                    if self.demand[gout] == 0 {
                        continue;
                    }
                    let Some(idx) = self.arbitrate(rid, out, cycle) else {
                        continue;
                    };
                    self.rr[gout] = (idx + 1) % n_slots;
                    let (inp, vc) = (idx / vcs, idx % vcs);
                    let flit = self.pop(rid, first_port * vcs + idx);
                    if inp != 0 {
                        // Credit return: the freed buffer slot belongs to
                        // the upstream output feeding input `inp`.
                        self.credits[self.peer[first_port + inp] * vcs + vc] += 1;
                    }
                    if out == 0 {
                        // Ejection over a 1-cycle link: the packet leaves
                        // on its tail flit, next cycle, if the run lasts.
                        if flit.is_tail && cycle + 1 < cycles {
                            in_network -= 1;
                            if flit.injected_at >= warmup {
                                total_latency += cycle + 1 - flit.injected_at;
                                measured += 1;
                            }
                        }
                    } else {
                        // Same VC index downstream. The 1-cycle link
                        // delivers next cycle; buffering the flit now is
                        // equivalent, as it cannot become eligible before
                        // `cycle + 1 + pipeline` and sits behind any flit
                        // already in that VC.
                        self.credits[gout * vcs + vc] -= 1;
                        let down = self.peer[gout];
                        self.push(
                            self.port_router[down],
                            down * vcs + vc,
                            Flit {
                                ready: cycle + 1 + pipeline,
                                ..flit
                            },
                        );
                    }
                }
            }
        }

        let avg_latency = if measured == 0 {
            0.0
        } else {
            total_latency as f64 / measured as f64
        };
        let zero_load = if generated == 0 {
            1.0
        } else {
            (zero_latency_sum / generated as f64 + 1.0) * (pipeline as f64 + 1.0)
        };
        let saturated = measured == 0 && generated > 0
            || avg_latency > 12.0 * zero_load
            || in_network > generated / 2;
        Ok(FlitSimResult {
            offered_rate: rate,
            avg_latency,
            packets: measured,
            backlog: in_network,
            saturated,
        })
    }
}

/// Sweeps injection rates on a flit-level network and returns a
/// [`LoadLatencyCurve`](crate::load_latency::LoadLatencyCurve) comparable
/// with the reservation engine's — the full-fidelity path for router
/// curves.
///
/// # Errors
///
/// Propagates invalid rates or patterns.
pub fn flit_load_latency(
    config: FlitConfig,
    pattern: TrafficPattern,
    rates: &[f64],
    cycles: u64,
    warmup: u64,
) -> Result<crate::load_latency::LoadLatencyCurve, NocError> {
    use crate::load_latency::{LoadLatencyCurve, LoadLatencyPoint};
    let mut net = FlitNetwork::new(config)?;
    let mut points = Vec::new();
    let mut saturated_seen = 0;
    for &rate in rates {
        let r = net.run(pattern, rate, cycles, warmup, 0xF117)?;
        points.push(LoadLatencyPoint {
            rate,
            latency: r.avg_latency,
            saturated: r.saturated,
        });
        if r.saturated {
            saturated_seen += 1;
            if saturated_seen >= 2 {
                break;
            }
        }
    }
    Ok(LoadLatencyCurve {
        network: format!("{:?} (flit-level)", config.kind),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh64(class: RouterClass) -> FlitNetwork {
        FlitNetwork::new(FlitConfig::table4_mesh64(class)).expect("valid")
    }

    #[test]
    fn flit_curve_has_hockey_stick_shape() {
        let curve = flit_load_latency(
            FlitConfig::table4_mesh64(RouterClass::OneCycle),
            TrafficPattern::UniformRandom,
            &[0.002, 0.02, 0.08, 0.2, 0.4, 0.8],
            6_000,
            1_500,
        )
        .unwrap();
        assert!(curve.zero_load_latency() < 20.0);
        assert!(
            curve.saturation_rate().is_some(),
            "high loads must saturate the flit mesh"
        );
    }

    #[test]
    fn rejects_bus_kinds() {
        let bad = FlitConfig {
            kind: NocKind::CryoBus,
            ..FlitConfig::table4_mesh64(RouterClass::OneCycle)
        };
        assert!(FlitNetwork::new(bad).is_err());
    }

    #[test]
    fn low_load_latency_reasonable() {
        // Zero-load mesh latency ≈ (avg hops + 1) × (router + link) ≈ 12.7
        // cycles; low-load measurement must be in that neighbourhood.
        let mut net = mesh64(RouterClass::OneCycle);
        let r = net
            .run(TrafficPattern::UniformRandom, 0.002, 12_000, 2_000, 7)
            .unwrap();
        assert!(!r.saturated);
        assert!(
            r.avg_latency > 8.0 && r.avg_latency < 18.0,
            "low-load flit latency = {}",
            r.avg_latency
        );
    }

    #[test]
    fn three_cycle_router_is_slower() {
        let mut one = mesh64(RouterClass::OneCycle);
        let mut three = mesh64(RouterClass::ThreeCycle);
        let a = one
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        let b = three
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        assert!(b.avg_latency > a.avg_latency + 3.0);
    }

    #[test]
    fn latency_grows_with_load() {
        let mut net = mesh64(RouterClass::OneCycle);
        let lo = net
            .run(TrafficPattern::UniformRandom, 0.005, 10_000, 2_000, 7)
            .unwrap();
        let hi = net
            .run(TrafficPattern::UniformRandom, 0.15, 10_000, 2_000, 7)
            .unwrap();
        assert!(hi.avg_latency > lo.avg_latency);
    }

    #[test]
    fn extreme_load_saturates() {
        let mut net = mesh64(RouterClass::OneCycle);
        let r = net
            .run(TrafficPattern::UniformRandom, 0.9, 6_000, 1_000, 7)
            .unwrap();
        assert!(r.saturated, "90% injection must saturate a mesh");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = mesh64(RouterClass::OneCycle);
        let mut b = mesh64(RouterClass::OneCycle);
        let ra = a
            .run(TrafficPattern::UniformRandom, 0.01, 6_000, 1_000, 11)
            .unwrap();
        let rb = b
            .run(TrafficPattern::UniformRandom, 0.01, 6_000, 1_000, 11)
            .unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn flit_conservation() {
        // Everything injected is either measured, pre-warmup, or backlog.
        let mut net = mesh64(RouterClass::OneCycle);
        let r = net
            .run(TrafficPattern::UniformRandom, 0.01, 8_000, 0, 3)
            .unwrap();
        assert!(r.packets + r.backlog > 0);
        // With warmup 0, measured + backlog accounts for every packet.
        assert!(r.packets > 0);
    }

    #[test]
    fn multi_flit_packets_have_serialization_latency() {
        let mut one_flit = mesh64(RouterClass::OneCycle);
        let mut five = FlitNetwork::new(FlitConfig {
            packet_flits: 5,
            ..FlitConfig::table4_mesh64(RouterClass::OneCycle)
        })
        .expect("valid");
        let a = one_flit
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        let b = five
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        assert!(
            b.avg_latency > a.avg_latency + 2.0,
            "5-flit packets must pay a serialization tail: {} vs {}",
            b.avg_latency,
            a.avg_latency
        );
    }

    #[test]
    fn fb_has_lower_latency_than_mesh() {
        let mut mesh = mesh64(RouterClass::OneCycle);
        let mut fb = FlitNetwork::new(FlitConfig {
            kind: NocKind::FlattenedButterfly,
            ..FlitConfig::table4_mesh64(RouterClass::OneCycle)
        })
        .expect("valid");
        let a = mesh
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        let b = fb
            .run(TrafficPattern::UniformRandom, 0.002, 10_000, 2_000, 7)
            .unwrap();
        assert!(b.avg_latency < a.avg_latency);
    }
}
