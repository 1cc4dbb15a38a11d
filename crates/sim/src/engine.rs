//! A fluid (rate-based, small-time-step) simulator of plan execution
//! on a C-core machine.
//!
//! Each node processes bytes at its profile rate scaled by its share
//! of the bottleneck resource; edges are bounded buffers with the
//! kernel-pipe capacity. The simulator reproduces the *mechanisms*
//! behind the paper's performance results:
//!
//! * task-parallel overlap of pipeline stages, capped by core count;
//! * pipe back-pressure and the sequential-`cat` laziness stalls that
//!   `eager` relays remove (§5.2, Fig. 6);
//! * blocking commands (`sort`, general `split`) that delay
//!   downstream start;
//! * early-exit consumers (`head -n 1`) cancelling their producers;
//! * per-process spawn cost and per-region setup cost (why sub-second
//!   scripts slow down, §6.2);
//! * disk and network bandwidth ceilings (why IO-bound scripts cap at
//!   low speedups, §6.1 Grep-light).
//!
//! The engine consumes the lowered [`ExecutionPlan`] — nodes arrive
//! dense, topologically ordered, with resolved edge endpoint kinds —
//! so all traversal bookkeeping lives in the compiler's lowering, and
//! this module keeps only the fluid rate model.

use std::collections::HashMap;

use pash_core::plan::{EndpointKind, ExecutionPlan, PlanNode, PlanOp, RegionPlan, SplitMode};

use crate::cost::{CostModel, Discipline, Profile, Resource};

/// Machine parameters: only the core count varies. The struct (and
/// its `Default`) stays because the benchmark harness builds one with
/// `..Default::default()`; ROADMAP item 1 frees it.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of cores (the paper's testbed: 64).
    pub cores: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { cores: 64.0 }
    }
}

/// Aggregate disk bandwidth, bytes/s.
const DISK_BW: f64 = 800e6;
/// Aggregate network bandwidth, bytes/s (1 Gbps testbed link).
const NET_BW: f64 = 125e6;
/// Pipe buffer capacity, bytes.
const PIPE_CAPACITY: f64 = 64.0 * 1024.0;
/// Bounded ("blocking") relay buffer, bytes. Lowering never emits a
/// blocking relay, but a plan that arrives over the wire may hold one.
const BLOCKING_RELAY_CAPACITY: f64 = 512.0 * 1024.0;
/// Per-process spawn cost, seconds.
const SPAWN_COST: f64 = 0.002;
/// Per-region fixed setup (compilation, mkfifo), seconds.
const SETUP_COST: f64 = 0.08;
/// Simulation time step, seconds.
const TICK: f64 = 0.004;
/// Give up after this much simulated time.
const MAX_TIME: f64 = 40_000.0;

/// Sizes of the input files a program reads (bytes).
pub type InputSizes = HashMap<String, f64>;

/// Result of simulating one region.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated wall-clock seconds, including setup and spawn.
    pub seconds: f64,
    /// Number of simulated processes.
    pub processes: usize,
    /// Total bytes written to the region's outputs.
    pub output_bytes: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Consuming,
    Emitting,
}

struct NodeState {
    profile: Profile,
    /// Sequential input consumption (cat semantics) vs. merged.
    sequential_inputs: bool,
    relay_cap: f64,
    start: f64,
    done: bool,
    phase: Phase,
    consumed: f64,
    produced: f64,
    /// Bytes awaiting emission (blocking stash or relay buffer).
    stash: f64,
    current_input: usize,
    /// Blocking-split emission cursor.
    emit_cursor: usize,
    /// Per-output byte shares of a round-robin split, which scatters
    /// *while streaming*; `None` for every other node.
    shares: Option<Vec<f64>>,
}

/// Byte shares a round-robin split deals its outputs: uniform
/// (`tests/properties.rs` checks that the real splitter stays close).
fn rr_shares(op: &PlanOp, k: usize) -> Option<Vec<f64>> {
    match op {
        PlanOp::Split {
            mode: SplitMode::RoundRobin { .. },
        } if k > 0 => Some(vec![1.0 / k as f64; k]),
        _ => None,
    }
}

enum EdgeKind {
    /// A file (or segment) on disk with this many bytes left.
    Source { remaining: f64 },
    /// A pipe buffer.
    Buffer { buffered: f64, cap: f64 },
    /// Output file / stdout: infinite sink.
    Sink { written: f64 },
    /// Unused slot.
    Dead,
}

struct EdgeState {
    kind: EdgeKind,
    producer_eof: bool,
    consumer_closed: bool,
}

/// Simulates one region plan; `stdin_bytes` feeds the primary
/// boundary pipe input.
pub fn simulate_region(
    r: &RegionPlan,
    sizes: &InputSizes,
    stdin_bytes: f64,
    cm: &CostModel,
    cfg: &SimConfig,
) -> SimReport {
    let n_nodes = r.nodes.len();

    // Edge states, straight from the resolved endpoint kinds.
    let mut edges: Vec<EdgeState> = Vec::with_capacity(r.edges.len());
    for edge in &r.edges {
        let kind = match &edge.kind {
            EndpointKind::Pipe => EdgeKind::Buffer {
                buffered: 0.0,
                cap: PIPE_CAPACITY,
            },
            // Stdin arrives from the launching process: treat as a
            // source at disk speed.
            EndpointKind::StdinPipe { primary } => EdgeKind::Source {
                remaining: if *primary { stdin_bytes } else { 0.0 },
            },
            EndpointKind::StdoutPipe | EndpointKind::OutputFile(_) => {
                EdgeKind::Sink { written: 0.0 }
            }
            EndpointKind::InputFile(path) => EdgeKind::Source {
                remaining: sizes.get(path).copied().unwrap_or(1e6),
            },
            EndpointKind::InputSegment { path, of, .. } => EdgeKind::Source {
                remaining: sizes.get(path).copied().unwrap_or(1e6) / (*of as f64),
            },
            EndpointKind::Detached => EdgeKind::Dead,
        };
        edges.push(EdgeState {
            kind,
            producer_eof: false,
            consumer_closed: false,
        });
    }

    // Node states; spawn serially.
    let mut nodes: Vec<NodeState> = Vec::with_capacity(n_nodes);
    for (i, node) in r.nodes.iter().enumerate() {
        let profile = cm.profile_for(&node.op);
        let relay_cap = match &node.op {
            PlanOp::Relay { blocking: false } => f64::INFINITY,
            PlanOp::Relay { blocking: true } => BLOCKING_RELAY_CAPACITY,
            _ => 0.0,
        };
        let sequential_inputs = !matches!(node.op, PlanOp::Aggregate { .. });
        nodes.push(NodeState {
            profile,
            sequential_inputs,
            relay_cap,
            start: SETUP_COST + (i as f64 + 1.0) * SPAWN_COST,
            done: false,
            phase: Phase::Consuming,
            consumed: 0.0,
            produced: 0.0,
            stash: 0.0,
            current_input: 0,
            emit_cursor: 0,
            shares: rr_shares(&node.op, node.outputs.len()),
        });
    }

    let mut t = SETUP_COST + n_nodes as f64 * SPAWN_COST;
    let dt = TICK;
    loop {
        if nodes.iter().all(|n| n.done) {
            break;
        }
        if t > MAX_TIME {
            break;
        }
        // --- Resource shares -------------------------------------
        let mut cpu_active = 0usize;
        let mut disk_active = 0usize;
        let mut net_active = 0usize;
        for (i, node) in r.nodes.iter().enumerate() {
            if !node_wants_to_run(node, &nodes[i], &edges, t) {
                continue;
            }
            match nodes[i].profile.resource {
                Resource::Cpu => cpu_active += 1,
                Resource::Disk => disk_active += 1,
                Resource::Net => net_active += 1,
            }
            // Reading from a source edge consumes disk bandwidth too.
            if reads_source(node, &nodes[i], &edges) {
                disk_active += 1;
            }
        }
        let cpu_share = (cfg.cores / cpu_active.max(1) as f64).min(1.0);
        let disk_share = DISK_BW / disk_active.max(1) as f64;
        let net_share = NET_BW / net_active.max(1) as f64;

        // --- Per-node transfers -----------------------------------
        // Budgets for this tick; transfers run in sub-rounds so that
        // small pipe buffers can cycle many times within one tick
        // (otherwise every pipe would cap flow at capacity/tick).
        let mut budgets: Vec<f64> = Vec::with_capacity(n_nodes);
        let mut emit_budgets: Vec<f64> = Vec::with_capacity(n_nodes);
        for st in nodes.iter() {
            let b = match st.profile.resource {
                Resource::Cpu => st.profile.rate * cpu_share * dt,
                Resource::Disk => st.profile.rate.min(disk_share) * dt,
                Resource::Net => st.profile.rate.min(net_share) * dt,
            };
            budgets.push(b);
            emit_budgets.push(st.profile.rate * cpu_share * dt);
        }
        for _round in 0..28 {
            let mut moved = 0.0;
            for (i, node) in r.nodes.iter().enumerate() {
                if nodes[i].done
                    || t < nodes[i].start
                    || (budgets[i] < 1.0 && emit_budgets[i] < 1.0)
                {
                    continue;
                }
                moved += step_node(
                    node,
                    i,
                    &mut nodes,
                    &mut edges,
                    &mut budgets[i],
                    &mut emit_budgets[i],
                    disk_share * dt,
                );
            }
            propagate_closures(r, &mut nodes, &mut edges);
            if moved < 1.0 {
                break;
            }
        }
        t += dt;
    }
    let output_bytes: f64 = edges
        .iter()
        .map(|e| match e.kind {
            EdgeKind::Sink { written } => written,
            _ => 0.0,
        })
        .sum();
    SimReport {
        seconds: t,
        processes: n_nodes,
        output_bytes,
    }
}

/// Whether a node would transfer bytes this tick (for share counting).
fn node_wants_to_run(node: &PlanNode, st: &NodeState, edges: &[EdgeState], t: f64) -> bool {
    if st.done || t < st.start {
        return false;
    }
    match st.phase {
        Phase::Consuming => {
            node.inputs
                .iter()
                .any(|&e| input_available(&edges[e]) > 0.0)
                || node.inputs.is_empty()
        }
        Phase::Emitting => st.stash > 0.0,
    }
}

fn reads_source(node: &PlanNode, st: &NodeState, edges: &[EdgeState]) -> bool {
    if st.phase != Phase::Consuming {
        return false;
    }
    node.inputs
        .iter()
        .any(|&e| matches!(edges[e].kind, EdgeKind::Source { remaining } if remaining > 0.0))
}

fn input_available(e: &EdgeState) -> f64 {
    match e.kind {
        EdgeKind::Source { remaining } => remaining,
        EdgeKind::Buffer { buffered, .. } => buffered,
        _ => 0.0,
    }
}

/// Free space a producer may write into an edge.
fn output_space(e: &EdgeState) -> f64 {
    if e.consumer_closed {
        // Writes to a closed pipe "succeed" instantly (the producer
        // dies of SIGPIPE; modelled as free progress then closure).
        return f64::INFINITY;
    }
    match e.kind {
        EdgeKind::Buffer { buffered, cap } => (cap - buffered).max(0.0),
        EdgeKind::Sink { .. } => f64::INFINITY,
        _ => 0.0,
    }
}

fn drain_input(e: &mut EdgeState, amount: f64) {
    match &mut e.kind {
        EdgeKind::Source { remaining } => *remaining = (*remaining - amount).max(0.0),
        EdgeKind::Buffer { buffered, .. } => *buffered = (*buffered - amount).max(0.0),
        _ => {}
    }
}

fn fill_output(e: &mut EdgeState, amount: f64) {
    if e.consumer_closed {
        return;
    }
    match &mut e.kind {
        EdgeKind::Buffer { buffered, .. } => *buffered += amount,
        EdgeKind::Sink { written } => *written += amount,
        _ => {}
    }
}

/// True when an input edge can never deliver more bytes.
fn input_exhausted(e: usize, edges: &[EdgeState]) -> bool {
    let edge = &edges[e];
    match edge.kind {
        EdgeKind::Source { remaining } => remaining <= 0.0,
        EdgeKind::Buffer { buffered, .. } => buffered <= 0.0 && edge.producer_eof,
        _ => true,
    }
}

#[allow(clippy::too_many_arguments)]
fn step_node(
    node: &PlanNode,
    i: usize,
    nodes: &mut [NodeState],
    edges: &mut [EdgeState],
    budget: &mut f64,
    emit_budget: &mut f64,
    disk_budget: f64,
) -> f64 {
    let st = &mut nodes[i];
    let is_split = matches!(node.op, PlanOp::Split { .. });
    let mut moved = 0.0;

    // --- Consume --------------------------------------------------
    if st.phase == Phase::Consuming {
        let inputs: &[usize] = &node.inputs;
        let mut consumed_now = 0.0;
        if st.sequential_inputs {
            // Cat semantics: drain the current input only.
            while *budget > 0.0 && st.current_input < inputs.len() {
                let e = inputs[st.current_input];
                let avail = input_available(&edges[e]);
                if avail <= 0.0 {
                    if input_exhausted(e, edges) {
                        st.current_input += 1;
                        continue;
                    }
                    break; // Blocked on this input (laziness!).
                }
                // Reading from disk is capped by the disk share.
                let cap = if matches!(edges[e].kind, EdgeKind::Source { .. }) {
                    budget.min(disk_budget)
                } else {
                    *budget
                };
                let room = space_for_consumption(st, node, edges);
                let take = avail.min(cap).min(room);
                // A sub-byte room is floating-point noise in a full
                // pipe: taking it would spin this loop without ever
                // spending the budget.
                if take <= 0.0 || (take == room && room < 1.0) {
                    break;
                }
                drain_input(&mut edges[e], take);
                *budget -= take;
                consumed_now += take;
            }
        } else {
            // Merge semantics: drain all inputs equally.
            let live: Vec<usize> = inputs
                .iter()
                .copied()
                .filter(|&e| input_available(&edges[e]) > 0.0)
                .collect();
            if !live.is_empty() {
                let per = (*budget / live.len() as f64)
                    .min(space_for_consumption(st, node, edges) / live.len() as f64);
                for &e in &live {
                    let take = input_available(&edges[e]).min(per);
                    drain_input(&mut edges[e], take);
                    consumed_now += take;
                }
                *budget -= consumed_now;
            }
        }
        st.consumed += consumed_now;
        moved += consumed_now;
        // Production.
        match st.profile.discipline {
            Discipline::Streaming => {
                if st.relay_cap > 0.0 {
                    st.stash += consumed_now; // Into the relay buffer.
                } else {
                    let out = consumed_now * st.profile.out_ratio;
                    if let Some(shares) = &st.shares {
                        // Streaming split (round-robin): scatter
                        // across every output as bytes arrive, so all
                        // workers run while the input is still being
                        // read.
                        for (j, &oe) in node.outputs.iter().enumerate() {
                            fill_output(&mut edges[oe], out * shares[j]);
                        }
                    } else if let Some(&oe) = node.outputs.first() {
                        fill_output(&mut edges[oe], out);
                    }
                    st.produced += out;
                }
            }
            Discipline::Blocking => {
                st.stash += consumed_now * st.profile.out_ratio;
            }
        }
        // EOF transition.
        let all_done = node.inputs.iter().all(|&e| input_exhausted(e, edges));
        if all_done {
            match st.profile.discipline {
                Discipline::Streaming if st.relay_cap == 0.0 => {
                    finish_node(st, node, edges);
                }
                _ => st.phase = Phase::Emitting,
            }
        }
    }

    // --- Emit (blocking stash or relay buffer) ---------------------
    if st.phase == Phase::Emitting || st.relay_cap > 0.0 {
        if is_split {
            // Blocking split scatters equal chunks to outputs in order.
            let k = node.outputs.len() as f64;
            let total = st.consumed * st.profile.out_ratio;
            while *emit_budget > 0.0 && st.stash > 0.0 && st.emit_cursor < node.outputs.len() {
                let oe = node.outputs[st.emit_cursor];
                let (chunk, cum_before) = (total / k, st.emit_cursor as f64 * total / k);
                let chunk_written = st.produced - cum_before;
                let left_in_chunk = (chunk - chunk_written).max(0.0);
                if left_in_chunk <= 0.5 {
                    st.emit_cursor += 1;
                    continue;
                }
                let space = output_space(&edges[oe]);
                let w = emit_budget.min(st.stash).min(left_in_chunk).min(space);
                if w <= 0.0 {
                    break;
                }
                fill_output(&mut edges[oe], w);
                st.stash -= w;
                st.produced += w;
                *emit_budget -= w;
                moved += w;
            }
        } else if let Some(&oe) = node.outputs.first() {
            let space = output_space(&edges[oe]);
            let ratio = if st.relay_cap > 0.0 {
                st.profile.out_ratio
            } else {
                1.0 // Already scaled when stashed.
            };
            let w = emit_budget.min(st.stash).min(space / ratio.max(1e-12));
            if w > 0.0 {
                fill_output(&mut edges[oe], w * ratio);
                st.stash -= w;
                st.produced += w * ratio;
                *emit_budget -= w;
                moved += w;
            }
        }
        // Sub-byte residue is floating-point noise, not real data.
        if st.phase == Phase::Emitting && st.stash <= 1.0 {
            finish_node(st, node, edges);
        }
    }

    // --- Early close (head) ----------------------------------------
    if let Some(limit) = st.profile.close_after_out {
        if st.produced >= limit && !st.done {
            finish_node(st, node, edges);
        }
    }
    moved
}

/// Space available for a streaming node to keep consuming.
fn space_for_consumption(st: &NodeState, node: &PlanNode, edges: &[EdgeState]) -> f64 {
    match st.profile.discipline {
        Discipline::Blocking => f64::INFINITY,
        Discipline::Streaming => {
            if st.relay_cap > 0.0 {
                (st.relay_cap - st.stash).max(0.0)
            } else if let Some(shares) = &st.shares {
                // Streaming split: the fullest output gates intake
                // (r_split blocks on whichever worker pipe is full).
                let mut space = f64::INFINITY;
                for (j, &oe) in node.outputs.iter().enumerate() {
                    if shares[j] > 1e-12 {
                        space = space.min(output_space(&edges[oe]) / shares[j]);
                    }
                }
                if st.profile.out_ratio <= 1e-12 {
                    f64::INFINITY
                } else {
                    space / st.profile.out_ratio
                }
            } else if let Some(&oe) = node.outputs.first() {
                let space = output_space(&edges[oe]);
                if st.profile.out_ratio <= 1e-12 {
                    f64::INFINITY
                } else {
                    space / st.profile.out_ratio
                }
            } else {
                f64::INFINITY
            }
        }
    }
}

fn finish_node(st: &mut NodeState, node: &PlanNode, edges: &mut [EdgeState]) {
    st.done = true;
    for &e in &node.outputs {
        edges[e].producer_eof = true;
    }
}

/// Closes inputs of done nodes and kills producers whose every
/// consumer vanished (the SIGPIPE cascade).
fn propagate_closures(r: &RegionPlan, nodes: &mut [NodeState], edges: &mut [EdgeState]) {
    loop {
        let mut changed = false;
        for (i, node) in r.nodes.iter().enumerate() {
            if !nodes[i].done {
                continue;
            }
            for &e in &node.inputs {
                if !edges[e].consumer_closed {
                    edges[e].consumer_closed = true;
                    changed = true;
                }
            }
        }
        for (i, node) in r.nodes.iter().enumerate() {
            if nodes[i].done {
                continue;
            }
            if !node.outputs.is_empty() && node.outputs.iter().all(|&e| edges[e].consumer_closed) {
                let st = &mut nodes[i];
                st.done = true;
                for &e in &node.outputs {
                    edges[e].producer_eof = true;
                }
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Simulates a whole lowered program. Regions run one after another
/// in plan order, as every executing backend runs them, so the
/// program costs the sum of its regions; `Shell` and `Guard` steps
/// cost nothing.
pub fn simulate_program(
    plan: &ExecutionPlan,
    sizes: &InputSizes,
    stdin_bytes: f64,
    cm: &CostModel,
    cfg: &SimConfig,
) -> SimReport {
    let mut total = SimReport {
        seconds: 0.0,
        processes: 0,
        output_bytes: 0.0,
    };
    for r in plan.regions() {
        let report = simulate_region(r, sizes, stdin_bytes, cm, cfg);
        total.seconds += report.seconds;
        total.processes += report.processes;
        total.output_bytes += report.output_bytes;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pash_core::compile::{compile, PashConfig};
    use pash_core::dfg::transform::SplitPolicy;

    fn sizes(mb: f64) -> InputSizes {
        [("in.txt".to_string(), mb * 1e6)].into_iter().collect()
    }

    fn sim(src: &str, cfg: &PashConfig, input_mb: f64) -> f64 {
        let compiled = compile(src, cfg).expect("compile");
        simulate_program(
            &compiled.plan,
            &sizes(input_mb),
            0.0,
            &CostModel::default(),
            &SimConfig::default(),
        )
        .seconds
    }

    fn speedup(src: &str, width: usize, input_mb: f64) -> f64 {
        let seq = sim(
            src,
            &PashConfig {
                width: 1,
                ..Default::default()
            },
            input_mb,
        );
        let par = sim(
            src,
            &PashConfig {
                width,
                ..Default::default()
            },
            input_mb,
        );
        seq / par
    }

    const GREP: &str =
        "cat in.txt | tr A-Z a-z | grep '(a|b|c|d|e)+(f|g|h)*(ij|kl)+xyz' | tr -d q > out.txt";
    const SORT: &str = "cat in.txt | tr A-Z a-z | sort > out.txt";

    #[test]
    fn stateless_pipeline_scales_substantially() {
        let s8 = speedup(GREP, 8, 100.0);
        assert!(s8 > 4.0, "8-wide grep speedup {s8:.2} too low");
        let s2 = speedup(GREP, 2, 100.0);
        assert!(s2 > 1.5 && s2 < 3.0, "2-wide grep speedup {s2:.2}");
    }

    #[test]
    fn speedup_monotone_then_saturates() {
        let s2 = speedup(SORT, 2, 100.0);
        let s8 = speedup(SORT, 8, 100.0);
        let s64 = speedup(SORT, 64, 100.0);
        assert!(s2 > 1.3, "sort 2x: {s2:.2}");
        assert!(s8 > s2, "sort should improve 2→8 ({s2:.2} → {s8:.2})");
        // The paper: sort-heavy scripts do not scale linearly to 64.
        assert!(s64 < 30.0, "sort 64x unrealistically high: {s64:.2}");
    }

    #[test]
    fn tiny_inputs_see_slowdown() {
        // §6.2: sub-second pipelines lose to the constant setup cost.
        let s = speedup("cat in.txt | grep x | head -n 1 > out.txt", 16, 0.01);
        assert!(s < 1.5, "tiny input speedup should be ~1 or below: {s:.2}");
    }

    #[test]
    fn non_parallelizable_stage_is_not_accelerated() {
        let s = speedup("cat in.txt | sha1sum > out.txt", 16, 50.0);
        assert!(s < 1.4, "sha1sum must not accelerate: {s:.2}");
    }

    #[test]
    fn split_helps_heavy_post_aggregation_stages() {
        // A slow stateless stage after an aggregation point can only
        // be re-parallelized by a split node (the reason wf / spell /
        // bi-grams "do not see benefits without split", Fig. 7).
        let src = "cat in.txt | sort | grep '(a|b|c|d|e)+(f|g|h)*(ij|kl)+xyz' > out.txt";
        let base = sim(
            src,
            &PashConfig {
                width: 8,
                split: SplitPolicy::Off,
                ..Default::default()
            },
            100.0,
        );
        let with_split = sim(
            src,
            &PashConfig {
                width: 8,
                split: SplitPolicy::Sized,
                ..Default::default()
            },
            100.0,
        );
        assert!(
            with_split < base * 0.6,
            "split {with_split:.1}s vs {base:.1}s"
        );
    }

    #[test]
    fn split_does_not_hurt_light_post_aggregation_stages() {
        // For cheap downstream stages, split's extra pass roughly
        // breaks even ("for the rest it does not affect performance").
        let src = "cat in.txt | sort | uniq -c > out.txt";
        let base = sim(
            src,
            &PashConfig {
                width: 8,
                split: SplitPolicy::Off,
                ..Default::default()
            },
            100.0,
        );
        let with_split = sim(
            src,
            &PashConfig {
                width: 8,
                split: SplitPolicy::Sized,
                ..Default::default()
            },
            100.0,
        );
        assert!(
            with_split <= base * 2.5,
            "split should not catastrophically hurt: {with_split:.1}s vs {base:.1}s"
        );
    }

    #[test]
    fn simulation_terminates_on_head_cancellation() {
        let src = "cat in.txt | sort -rn | head -n 1 > out.txt";
        let t = sim(
            src,
            &PashConfig {
                width: 4,
                ..Default::default()
            },
            20.0,
        );
        assert!(t < MAX_TIME / 2.0);
    }

    #[test]
    fn simulation_terminates_on_a_full_pipe_into_a_sequential_stage() {
        // The merged `tr` copies fill the pipe into the sequential
        // `tr -cs` to within floating-point noise of its capacity: a
        // sub-byte room must block intake, not spin on it.
        let src = "cat in.txt | tr A-Z a-z | tr -cs aeiou '\\n' | grep -v '^$' | sort | uniq -c > out.txt";
        let cfg = PashConfig {
            width: 4,
            split: SplitPolicy::Sized,
            ..Default::default()
        };
        let plan = compile(src, &cfg).expect("compile").plan;
        // A spinning loop never reaches `MAX_TIME`: watch the clock.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cm = CostModel::default();
            let r = simulate_program(&plan, &sizes(4.0), 0.0, &cm, &SimConfig { cores: 2.0 });
            tx.send(r.seconds).expect("receiver waits");
        });
        let t = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the simulation spun");
        assert!(t < MAX_TIME / 2.0);
    }

    #[test]
    fn round_robin_split_streams_past_general() {
        // Post-aggregation re-parallelization: the general split must
        // ingest the whole stream before dealing chunks, while
        // r_split scatters tagged blocks as they arrive, so the heavy
        // downstream stage overlaps with the split's intake. (`Sized`
        // gives the stateless `grep` behind the merge a general split.)
        let src = "cat in.txt | sort | grep '(a|b|c|d|e)+(f|g|h)*(ij|kl)+xyz' > out.txt";
        let general = sim(
            src,
            &PashConfig {
                width: 8,
                split: SplitPolicy::Sized,
                ..Default::default()
            },
            100.0,
        );
        let rr = sim(
            src,
            &PashConfig {
                width: 8,
                split: SplitPolicy::RoundRobin,
                ..Default::default()
            },
            100.0,
        );
        assert!(
            rr < general,
            "r_split {rr:.1}s should beat general split {general:.1}s"
        );
    }

    #[test]
    fn report_counts_processes() {
        let compiled = compile(
            SORT,
            &PashConfig {
                width: 8,
                ..Default::default()
            },
        )
        .expect("compile");
        let r = simulate_program(
            &compiled.plan,
            &sizes(10.0),
            0.0,
            &CostModel::default(),
            &SimConfig::default(),
        );
        // 8 tr + 8 sort + 7 agg + 14 eager (§6.1).
        assert_eq!(r.processes, 37);
    }
}
