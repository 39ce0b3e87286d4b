//! The compiled simulation kernel: CSR netlist, shared good machine,
//! flat injection schedules and cone-restricted batch evaluation.
//!
//! The reference kernel in [`crate::fault`] walks the [`Circuit`] object
//! graph every cycle: per-gate `Vec<NetId>` input lists, a per-cycle
//! scan over all nets for constant drivers, and per-gate `HashMap`
//! probes for fault injections. This module removes all three costs:
//!
//! 1. [`CompiledCircuit`] — built once per `FaultSim` — lowers the
//!    levelized circuit into structure-of-arrays form: topo-ordered gate
//!    kinds, a CSR (`in_start`/`in_nets`) over input net indices, output
//!    net indices, source/const/DFF index arrays and a load CSR used for
//!    fanout-cone propagation. The hot loop reads nothing but flat `u32`
//!    arrays.
//! 2. [`Schedule`] — built once per fault batch — replaces the batch
//!    `HashMap`s with arrays sorted in topological order. The stepping
//!    loop merges them with cursors: zero hashing, and gates without
//!    injections pay a single integer compare.
//! 3. [`GoodTrace`] + dirty-set evaluation — the fault-free machine is
//!    simulated once per query (scalar three-valued evaluation, bit
//!    packed per cycle), and each batch then runs *event-driven*
//!    against that shared trace: a net is **dirty** in a cycle when its
//!    planes differ from the fault-free value on a live machine bit,
//!    and a gate is evaluated only when one of its operands is dirty
//!    (or it carries a live injection). Clean operands are read
//!    straight from the good trace, so the per-cycle work is
//!    proportional to the *activity* of the live faults, not to the
//!    circuit size — typically a small fraction of the netlist once a
//!    batch's faults settle or drop.
//!
//! Scheduling uses bitmap worklists in topological order: dirtying a
//! net sets the bit of every consuming gate, and because loads sit at
//! strictly later topo positions, a single forward sweep over the
//! bitmap evaluates everything that can change. Dirtiness crosses the
//! register boundary through per-flip-flop dirty state (a dirty data
//! net makes the stored planes dirty for the next cycle), and dropped
//! machine bits fall out automatically: dirtiness is judged against the
//! live mask, so a net corrupted only by already-detected faults goes
//! clean by itself.
//!
//! The per-batch *reachability cone* — a monotone worklist closure over
//! gate fanout that crosses flip-flop boundaries (a fault reaching a
//! DFF data input contaminates the DFF output net, and everything
//! downstream of it, on later cycles) — is still computed per run: it
//! bounds the observed nets a batch can ever disturb.

use crate::logic::Logic3;
use crate::plane::{Planes, BATCH_FAULTS};
use crate::sequence::TestSequence;
use wbist_netlist::{Circuit, Driver, Fault, FaultSite, GateKind};

/// Which flat [`Schedule`] array a conditional injection overlays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InjSlot {
    SrcPi,
    SrcDff,
    SrcConst,
    GateStem,
    Pin,
    Dff,
}

/// One conditional injection: a fault whose effect masks join the
/// schedule only in cycles where its *activation condition* holds on the
/// fault-free machine. Transition-delay faults use this — the fault
/// launches when the good value of `watch` changes from `!slow_to` at
/// cycle `t-1` to `slow_to` at cycle `t`, and the effect forces the site
/// back to `!slow_to` in the capture cycle `t`. The two-plane good trace
/// stores every cycle, so both the launch and the capture value are one
/// indexed read away; stuck-at faults never allocate an entry here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CondInj {
    /// Which array the effect masks OR into.
    pub(crate) slot: InjSlot,
    /// Index of the target entry in that array (post-sort).
    pub(crate) idx: u32,
    /// Net whose fault-free transition activates the fault.
    pub(crate) watch: u32,
    /// Destination value of the slow transition.
    pub(crate) slow_to: bool,
    /// Machine bit of the fault.
    pub(crate) bit: u64,
}

/// Load codes in the fanout CSR: values `< num_gates` are consuming
/// gate topo positions; `num_gates + k` is the data input of DFF `k`.
#[derive(Debug, Clone)]
pub(crate) struct CompiledCircuit {
    pub(crate) num_nets: usize,
    pub(crate) num_gates: usize,
    pub(crate) num_dffs: usize,
    /// Gate kinds in topological order.
    pub(crate) kinds: Vec<GateKind>,
    /// CSR offsets into `in_nets`, length `num_gates + 1`.
    pub(crate) in_start: Vec<u32>,
    /// Flattened input net indices, topo-gate major, pin order.
    pub(crate) in_nets: Vec<u32>,
    /// Output net index per topo position.
    pub(crate) out_nets: Vec<u32>,
    /// Primary input net indices, PI order.
    pub(crate) pi_nets: Vec<u32>,
    /// Constant-driven nets and their values.
    pub(crate) const_vals: Vec<(u32, bool)>,
    /// DFF data / state-output net indices, DFF order.
    pub(crate) dff_d: Vec<u32>,
    pub(crate) dff_q: Vec<u32>,
    /// Observed nets: primary outputs followed by observation points.
    pub(crate) observed: Vec<u32>,
    /// GateId index → topo position.
    pub(crate) topo_pos: Vec<u32>,
    /// CSR offsets into `load_codes`, length `num_nets + 1`.
    pub(crate) load_start: Vec<u32>,
    /// Encoded loads per net (see type-level comment).
    pub(crate) load_codes: Vec<u32>,
    /// Every net index, ascending — the "cone" of the reference kernel.
    pub(crate) all_nets: Vec<u32>,
    /// Per-primary-input forward cones over gate topo positions:
    /// `gate_words` words per PI, bit `g` set when gate `g` is reachable
    /// from the PI through gate fanout, *crossing DFF boundaries* (a PI
    /// reaching a DFF data input reaches the DFF's output net — and its
    /// loads — on later cycles, so membership means "reachable at some
    /// cycle offset"). Bounds what a changed input stream can dirty in
    /// the cone-seeded incremental good-trace rebuild (the dynamic
    /// dirty set is narrower; the static bound is debug-asserted).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) pi_cone_gates: Vec<u64>,
    /// Per-primary-input forward cones over DFF indices, `dff_words`
    /// words per PI (same closure as `pi_cone_gates`). Consumed by the
    /// debug-build cone-union assertion in `good_trace_from_cone`.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) pi_cone_dffs: Vec<u64>,
    /// `u64` words per PI in `pi_cone_gates`.
    pub(crate) gate_words: usize,
    /// `u64` words per PI in `pi_cone_dffs`.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) dff_words: usize,
}

impl CompiledCircuit {
    /// Lowers a levelized circuit. O(nets + gates + pins).
    ///
    /// # Panics
    ///
    /// Panics if the circuit has not been levelized.
    pub(crate) fn build(c: &Circuit) -> CompiledCircuit {
        assert!(c.is_levelized(), "circuit must be levelized");
        let num_nets = c.num_nets();
        let num_gates = c.num_gates();
        let num_dffs = c.num_dffs();

        let mut kinds = Vec::with_capacity(num_gates);
        let mut in_start = Vec::with_capacity(num_gates + 1);
        let mut in_nets = Vec::new();
        let mut out_nets = Vec::with_capacity(num_gates);
        let mut topo_pos = vec![0u32; num_gates];
        in_start.push(0u32);
        for (pos, &gid) in c.topo_gates().iter().enumerate() {
            let g = c.gate(gid);
            topo_pos[gid.index()] = pos as u32;
            kinds.push(g.kind);
            for &i in &g.inputs {
                in_nets.push(i.index() as u32);
            }
            in_start.push(in_nets.len() as u32);
            out_nets.push(g.output.index() as u32);
        }

        let pi_nets = c.inputs().iter().map(|n| n.index() as u32).collect();
        let const_vals = c.const_nets().map(|(n, v)| (n.index() as u32, v)).collect();
        let dff_d = c
            .dffs()
            .iter()
            .map(|d| d.d.expect("levelized circuits have connected DFFs").index() as u32)
            .collect();
        let dff_q = c.dffs().iter().map(|d| d.q.index() as u32).collect();
        let observed = c.observed_nets().map(|n| n.index() as u32).collect();

        // Fanout CSR over nets: consuming gate topo positions + DFF data
        // loads, for cone propagation.
        let mut load_count = vec![0u32; num_nets];
        for pos in 0..num_gates {
            for i in in_start[pos] as usize..in_start[pos + 1] as usize {
                load_count[in_nets[i] as usize] += 1;
            }
        }
        let dff_d_vec: &Vec<u32> = &dff_d;
        for &d in dff_d_vec {
            load_count[d as usize] += 1;
        }
        let mut load_start = Vec::with_capacity(num_nets + 1);
        let mut acc = 0u32;
        load_start.push(0u32);
        for &cnt in &load_count {
            acc += cnt;
            load_start.push(acc);
        }
        let mut cursor: Vec<u32> = load_start[..num_nets].to_vec();
        let mut load_codes = vec![0u32; acc as usize];
        for pos in 0..num_gates {
            for &inp in &in_nets[in_start[pos] as usize..in_start[pos + 1] as usize] {
                let n = inp as usize;
                load_codes[cursor[n] as usize] = pos as u32;
                cursor[n] += 1;
            }
        }
        for (k, &d) in dff_d_vec.iter().enumerate() {
            load_codes[cursor[d as usize] as usize] = (num_gates + k) as u32;
            cursor[d as usize] += 1;
        }

        // Per-PI forward-cone bitmaps: a monotone worklist closure over
        // the load CSR, continuing through DFF boundaries via the Q net.
        // O(inputs × (nets + pins)); the per-PI net stamp avoids
        // clearing the visited set between inputs.
        let pi_nets: Vec<u32> = pi_nets;
        let dff_q: Vec<u32> = dff_q;
        let out_nets: Vec<u32> = out_nets;
        let gate_words = num_gates.div_ceil(64);
        let dff_words = num_dffs.div_ceil(64);
        let mut pi_cone_gates = vec![0u64; pi_nets.len() * gate_words];
        let mut pi_cone_dffs = vec![0u64; pi_nets.len() * dff_words];
        let mut seen = vec![u32::MAX; num_nets];
        let mut stack: Vec<u32> = Vec::new();
        for (pi, &root) in pi_nets.iter().enumerate() {
            seen[root as usize] = pi as u32;
            stack.push(root);
            while let Some(n) = stack.pop() {
                let (s, e) = (load_start[n as usize], load_start[n as usize + 1]);
                for &code in &load_codes[s as usize..e as usize] {
                    let next = if (code as usize) < num_gates {
                        let g = code as usize;
                        pi_cone_gates[pi * gate_words + g / 64] |= 1u64 << (g % 64);
                        out_nets[g]
                    } else {
                        let k = code as usize - num_gates;
                        pi_cone_dffs[pi * dff_words + k / 64] |= 1u64 << (k % 64);
                        dff_q[k]
                    };
                    if seen[next as usize] != pi as u32 {
                        seen[next as usize] = pi as u32;
                        stack.push(next);
                    }
                }
            }
        }

        CompiledCircuit {
            num_nets,
            num_gates,
            num_dffs,
            kinds,
            in_start,
            in_nets,
            out_nets,
            pi_nets,
            const_vals,
            dff_d,
            dff_q,
            observed,
            topo_pos,
            load_start,
            load_codes,
            all_nets: (0..num_nets as u32).collect(),
            pi_cone_gates,
            pi_cone_dffs,
            gate_words,
            dff_words,
        }
    }

    /// Bitmap over gate topo positions of primary input `pi`'s forward
    /// cone (DFF-boundary-crossing closure).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn cone_gates_of(&self, pi: usize) -> &[u64] {
        &self.pi_cone_gates[pi * self.gate_words..(pi + 1) * self.gate_words]
    }

    /// Bitmap over DFF indices of primary input `pi`'s forward cone.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn cone_dffs_of(&self, pi: usize) -> &[u64] {
        &self.pi_cone_dffs[pi * self.dff_words..(pi + 1) * self.dff_words]
    }

    /// Scalar three-valued evaluation of the fault-free machine over
    /// `seq`, starting from the flip-flop state `init_ff`. Returns the
    /// bit-packed per-cycle trace of every net plus the final flip-flop
    /// state (for incremental callers to resume from).
    pub(crate) fn good_trace(
        &self,
        seq: &TestSequence,
        init_ff: &[Logic3],
    ) -> (GoodTrace, Vec<Logic3>) {
        debug_assert_eq!(init_ff.len(), self.num_dffs);
        let words = self.num_nets.div_ceil(64);
        let mut trace = GoodTrace {
            num_cycles: seq.len(),
            words,
            ones: vec![0u64; words * seq.len()],
            zeros: vec![0u64; words * seq.len()],
        };
        let mut ff = init_ff.to_vec();
        let mut nets = vec![Logic3::X; self.num_nets];
        for u in 0..seq.len() {
            self.good_cycle(seq.row(u), &mut ff, &mut nets, &mut trace, u);
        }
        (trace, ff)
    }

    /// The good trace of `seq` when it is the `base` sequence with
    /// `gap ≥ 1` rows deleted after their `shared ≥ 1` prefix rows: rows
    /// `shared..` of `seq` equal rows `shared + gap..` of the base
    /// sequence (the shape of a static-compaction trial). The first
    /// `shared` cycles are copied from `base`, and the suffix is
    /// simulated from the state `base` recorded entering cycle `shared`
    /// only until the state entering some cycle `u` equals the base's
    /// state entering `u + gap`; from there the two machines apply the
    /// same inputs to the same state, so the remaining rows are copied
    /// from `base`, shifted. A synchronizing machine rejoins within a
    /// few cycles.
    ///
    /// Returns the trace and the number of suffix rows simulated.
    pub(crate) fn good_trace_from(
        &self,
        seq: &TestSequence,
        base: &GoodTrace,
        shared: usize,
        gap: usize,
    ) -> (GoodTrace, usize) {
        debug_assert!(shared >= 1 && shared <= seq.len());
        debug_assert!(gap >= 1 && base.len() == seq.len() + gap);
        let words = self.num_nets.div_ceil(64);
        debug_assert_eq!(base.words, words);
        let mut trace = GoodTrace {
            num_cycles: seq.len(),
            words,
            ones: vec![0u64; words * seq.len()],
            zeros: vec![0u64; words * seq.len()],
        };
        trace.ones[..shared * words].copy_from_slice(&base.ones[..shared * words]);
        trace.zeros[..shared * words].copy_from_slice(&base.zeros[..shared * words]);
        // The state entering cycle `shared` is what each flip-flop
        // latched at the end of cycle `shared - 1` — its D net's value.
        let mut ff: Vec<Logic3> = self
            .dff_d
            .iter()
            .map(|&d| base.value(shared - 1, d as usize))
            .collect();
        let mut nets = vec![Logic3::X; self.num_nets];
        for u in shared..seq.len() {
            // The base's state entering `u + gap` is what its
            // flip-flops latched at the end of the cycle before.
            let rejoined = self
                .dff_d
                .iter()
                .zip(&ff)
                .all(|(&d, &v)| base.value(u + gap - 1, d as usize) == v);
            if rejoined {
                let (from, to) = ((u + gap) * words, u * words);
                let rows = (seq.len() - u) * words;
                trace.ones[to..to + rows].copy_from_slice(&base.ones[from..from + rows]);
                trace.zeros[to..to + rows].copy_from_slice(&base.zeros[from..from + rows]);
                return (trace, u - shared);
            }
            self.good_cycle(seq.row(u), &mut ff, &mut nets, &mut trace, u);
        }
        (trace, seq.len() - shared)
    }

    /// Like [`good_trace`](Self::good_trace), but copies the first
    /// `shared` cycles from `base` (whose input rows must match `seq` on
    /// that prefix) and rebuilds only the suffix. Instead of
    /// re-evaluating every gate of every suffix cycle, the rows that
    /// overlap `base` are rebuilt *incrementally* — the dirty
    /// worklist is seeded each cycle with only the primary inputs whose
    /// streams differ (`changed_pis`, per-PI flags) plus the Q nets of
    /// flip-flops whose data input was dirty the cycle before, and a
    /// gate is evaluated only when one of its operands left the base
    /// value. A gate whose recomputed output equals the base value goes
    /// clean on the spot, so dirtiness dies out instead of flooding the
    /// netlist. Rows past `base.len()` fall back to full evaluation.
    ///
    /// Every evaluated gate provably lies inside the union of the
    /// changed inputs' forward cones (`pi_cone_gates`, debug-asserted),
    /// and the produced trace is bit-identical to a from-scratch
    /// [`good_trace`](Self::good_trace) — pinned by
    /// `good_trace_from_cone_matches_full` below and the
    /// prefix-cache proptests. Needs `shared ≥ 1` (a cache hit shares
    /// at least one row). Returns the gate-evaluation accounting
    /// alongside the trace.
    pub(crate) fn good_trace_from_cone(
        &self,
        seq: &TestSequence,
        base: &GoodTrace,
        shared: usize,
        changed_pis: &[bool],
    ) -> (GoodTrace, TraceStats) {
        debug_assert_eq!(changed_pis.len(), self.pi_nets.len());
        debug_assert!(shared >= 1 && shared <= seq.len() && shared <= base.len());
        let words = self.num_nets.div_ceil(64);
        debug_assert_eq!(base.words, words);
        let mut trace = GoodTrace {
            num_cycles: seq.len(),
            words,
            ones: vec![0u64; words * seq.len()],
            zeros: vec![0u64; words * seq.len()],
        };
        trace.ones[..shared * words].copy_from_slice(&base.ones[..shared * words]);
        trace.zeros[..shared * words].copy_from_slice(&base.zeros[..shared * words]);
        let mut stats = TraceStats::default();
        // Union cone of the changed input streams: the static bound the
        // dynamic dirty set must stay inside.
        #[cfg(debug_assertions)]
        let (cone, cone_ffs): (Vec<u64>, Vec<u64>) = {
            let mut cone = vec![0u64; self.gate_words];
            let mut cone_ffs = vec![0u64; self.dff_words];
            for (pi, &flag) in changed_pis.iter().enumerate() {
                if flag {
                    for (w, &bits) in self.cone_gates_of(pi).iter().enumerate() {
                        cone[w] |= bits;
                    }
                    for (w, &bits) in self.cone_dffs_of(pi).iter().enumerate() {
                        cone_ffs[w] |= bits;
                    }
                }
            }
            (cone, cone_ffs)
        };
        let mut sched = vec![0u64; self.gate_words];
        let mut dirty = vec![false; self.num_nets];
        let mut val = vec![Logic3::X; self.num_nets];
        let mut dirty_nets: Vec<u32> = Vec::new();
        // DFF indices whose data net was dirty in the previous cycle:
        // their Q nets seed the next cycle's worklist (this is how
        // dirtiness crosses the register boundary).
        let mut dirty_qs: Vec<u32> = Vec::new();
        let mut next_qs: Vec<u32> = Vec::new();
        let overlap = seq.len().min(base.len());
        for u in shared..overlap {
            let evaluated_before = stats.gates_evaluated;
            // Seed: changed-stream PIs that actually differ this cycle…
            let row = seq.row(u);
            for (pi, &n) in self.pi_nets.iter().enumerate() {
                if !changed_pis[pi] {
                    debug_assert_eq!(
                        Logic3::from(row[pi]),
                        base.value(u, n as usize),
                        "unchanged stream diverged from the base trace"
                    );
                    continue;
                }
                let v: Logic3 = row[pi].into();
                if v != base.value(u, n as usize) {
                    dirty[n as usize] = true;
                    val[n as usize] = v;
                    dirty_nets.push(n);
                    mark_cone_loads(self, n as usize, &mut sched, &mut next_qs);
                }
            }
            // …and the Q nets latched from last cycle's dirty D nets.
            for &k in &dirty_qs {
                #[cfg(debug_assertions)]
                debug_assert!(
                    cone_ffs[k as usize / 64] & (1u64 << (k % 64)) != 0,
                    "flip-flop {k} latched dirtiness outside the changed-input cone union"
                );
                let q = self.dff_q[k as usize] as usize;
                let v = trace.value(u - 1, self.dff_d[k as usize] as usize);
                debug_assert_ne!(v, base.value(u, q), "a dirty D net implies a dirty Q");
                dirty[q] = true;
                val[q] = v;
                dirty_nets.push(q as u32);
                mark_cone_loads(self, q, &mut sched, &mut next_qs);
            }
            // Forward sweep in topo order: loads sit at strictly later
            // positions, so popping the lowest set bit first evaluates
            // everything that can change exactly once.
            let mut wi = 0usize;
            while wi < self.gate_words {
                if sched[wi] == 0 {
                    wi += 1;
                    continue;
                }
                let bit = sched[wi].trailing_zeros() as usize;
                sched[wi] &= sched[wi] - 1;
                let pos = wi * 64 + bit;
                #[cfg(debug_assertions)]
                debug_assert!(
                    cone[wi] & (1u64 << bit) != 0,
                    "gate {pos} dirtied outside the changed-input cone union"
                );
                stats.gates_evaluated += 1;
                let s = self.in_start[pos] as usize;
                let e = self.in_start[pos + 1] as usize;
                let read = |n: usize| if dirty[n] { val[n] } else { base.value(u, n) };
                let mut acc = read(self.in_nets[s] as usize);
                match self.kinds[pos] {
                    GateKind::And | GateKind::Nand => {
                        for &i in &self.in_nets[s + 1..e] {
                            acc = acc.and(read(i as usize));
                        }
                    }
                    GateKind::Or | GateKind::Nor => {
                        for &i in &self.in_nets[s + 1..e] {
                            acc = acc.or(read(i as usize));
                        }
                    }
                    GateKind::Xor | GateKind::Xnor => {
                        for &i in &self.in_nets[s + 1..e] {
                            acc = acc.xor(read(i as usize));
                        }
                    }
                    GateKind::Not | GateKind::Buf => {}
                }
                if self.kinds[pos].inverting() {
                    acc = acc.not();
                }
                let out = self.out_nets[pos] as usize;
                if acc != base.value(u, out) {
                    dirty[out] = true;
                    val[out] = acc;
                    dirty_nets.push(out as u32);
                    mark_cone_loads(self, out, &mut sched, &mut next_qs);
                }
            }
            stats.gates_saved += self.num_gates as u64 - (stats.gates_evaluated - evaluated_before);
            // Write the row: the base row verbatim, then the dirty nets.
            let rb = u * words;
            trace.ones[rb..rb + words].copy_from_slice(&base.ones[rb..rb + words]);
            trace.zeros[rb..rb + words].copy_from_slice(&base.zeros[rb..rb + words]);
            for &n in &dirty_nets {
                let w = rb + n as usize / 64;
                let bit = 1u64 << (n % 64);
                trace.ones[w] &= !bit;
                trace.zeros[w] &= !bit;
                match val[n as usize] {
                    Logic3::One => trace.ones[w] |= bit,
                    Logic3::Zero => trace.zeros[w] |= bit,
                    Logic3::X => {}
                }
            }
            // Sparse reset for the next cycle.
            for &n in &dirty_nets {
                dirty[n as usize] = false;
            }
            dirty_nets.clear();
            std::mem::swap(&mut dirty_qs, &mut next_qs);
            next_qs.clear();
        }
        // Rows past the base trace have nothing to diff against: full
        // scalar evaluation from the flip-flop state the incremental
        // rows produced.
        if overlap < seq.len() {
            let mut ff: Vec<Logic3> = self
                .dff_d
                .iter()
                .map(|&d| trace.value(overlap - 1, d as usize))
                .collect();
            let mut nets = vec![Logic3::X; self.num_nets];
            for u in overlap..seq.len() {
                self.good_cycle(seq.row(u), &mut ff, &mut nets, &mut trace, u);
            }
            stats.gates_evaluated += (self.num_gates * (seq.len() - overlap)) as u64;
        }
        (trace, stats)
    }

    /// One scalar fault-free cycle: apply `row`, evaluate all gates in
    /// topological order, latch the flip-flops, and record every net
    /// into `trace` at cycle `u`.
    fn good_cycle(
        &self,
        row: &[bool],
        ff: &mut [Logic3],
        nets: &mut [Logic3],
        trace: &mut GoodTrace,
        u: usize,
    ) {
        for (pi, &n) in self.pi_nets.iter().enumerate() {
            nets[n as usize] = row[pi].into();
        }
        for (k, &q) in self.dff_q.iter().enumerate() {
            nets[q as usize] = ff[k];
        }
        for &(n, v) in &self.const_vals {
            nets[n as usize] = v.into();
        }
        for pos in 0..self.num_gates {
            let s = self.in_start[pos] as usize;
            let e = self.in_start[pos + 1] as usize;
            let mut acc = nets[self.in_nets[s] as usize];
            match self.kinds[pos] {
                GateKind::And | GateKind::Nand => {
                    for &i in &self.in_nets[s + 1..e] {
                        acc = acc.and(nets[i as usize]);
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    for &i in &self.in_nets[s + 1..e] {
                        acc = acc.or(nets[i as usize]);
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    for &i in &self.in_nets[s + 1..e] {
                        acc = acc.xor(nets[i as usize]);
                    }
                }
                GateKind::Not | GateKind::Buf => {}
            }
            if self.kinds[pos].inverting() {
                acc = acc.not();
            }
            nets[self.out_nets[pos] as usize] = acc;
        }
        for (k, &d) in self.dff_d.iter().enumerate() {
            ff[k] = nets[d as usize];
        }
        let base = u * trace.words;
        for (n, &v) in nets.iter().enumerate() {
            match v {
                Logic3::One => trace.ones[base + n / 64] |= 1u64 << (n % 64),
                Logic3::Zero => trace.zeros[base + n / 64] |= 1u64 << (n % 64),
                Logic3::X => {}
            }
        }
    }
}

/// Gate-evaluation accounting for an incremental good-trace rebuild:
/// how many gates the suffix actually evaluated, and how many a full
/// per-cycle rescan would have evaluated but the cone-restricted sweep
/// proved clean. `evaluated + saved = num_gates × overlap_cycles` for
/// the incrementally rebuilt rows; rows past the base trace count as
/// fully evaluated with nothing saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TraceStats {
    /// Gates evaluated while rebuilding the suffix.
    pub(crate) gates_evaluated: u64,
    /// Gates a full rescan would have re-evaluated for nothing.
    pub(crate) gates_saved: u64,
}

impl TraceStats {
    /// Accounting for a full (non-incremental) rebuild.
    pub(crate) fn full(evaluated: u64) -> TraceStats {
        TraceStats {
            gates_evaluated: evaluated,
            gates_saved: 0,
        }
    }
}

/// Schedules the consumers of a freshly dirtied net during the
/// cone-seeded good-trace rebuild: consuming gates join the bitmap
/// worklist, DFF data loads are collected for the *next* cycle's Q-net
/// seeding. Each net is dirtied at most once per cycle (single driver),
/// so the DFF list never sees duplicates.
#[inline]
fn mark_cone_loads(cc: &CompiledCircuit, net: usize, sched: &mut [u64], next_qs: &mut Vec<u32>) {
    let s = cc.load_start[net] as usize;
    let e = cc.load_start[net + 1] as usize;
    for &code in &cc.load_codes[s..e] {
        if (code as usize) < cc.num_gates {
            sched[code as usize / 64] |= 1u64 << (code % 64);
        } else {
            next_qs.push(code - cc.num_gates as u32);
        }
    }
}

/// Bit-packed per-cycle values of every net in the fault-free machine.
#[derive(Debug, Clone)]
pub(crate) struct GoodTrace {
    num_cycles: usize,
    words: usize,
    ones: Vec<u64>,
    zeros: Vec<u64>,
}

impl GoodTrace {
    /// Number of recorded cycles.
    pub(crate) fn len(&self) -> usize {
        self.num_cycles
    }

    /// The fault-free value of net `n` at cycle `u`, broadcast to all
    /// machine bit positions.
    #[inline]
    pub(crate) fn planes(&self, u: usize, n: usize) -> Planes {
        let w = u * self.words + n / 64;
        let bit = 1u64 << (n % 64);
        if self.ones[w] & bit != 0 {
            Planes::ALL_ONE
        } else if self.zeros[w] & bit != 0 {
            Planes::ALL_ZERO
        } else {
            Planes::ALL_X
        }
    }

    /// The fault-free value of net `n` at cycle `u` as a scalar.
    #[inline]
    pub(crate) fn value(&self, u: usize, n: usize) -> Logic3 {
        let w = u * self.words + n / 64;
        let bit = 1u64 << (n % 64);
        if self.ones[w] & bit != 0 {
            Logic3::One
        } else if self.zeros[w] & bit != 0 {
            Logic3::Zero
        } else {
            Logic3::X
        }
    }
}

/// Complete state of one fault batch at a cycle boundary of `run_batch`,
/// captured at checkpointed cycles so a later evaluation sharing the
/// input prefix can resume mid-sequence instead of replaying from
/// cycle 0.
///
/// Everything the remaining cycles can observe is stored: the live
/// mask, the faulty flip-flop planes, the *explicit* dirty flip-flop
/// set (restored verbatim on resume — recomputing it by comparing
/// planes against the good machine would drop flip-flops whose faulty
/// planes converged while still flagged, changing `gates_evaluated`),
/// the cumulative [`BatchStats`], and how many detections were recorded
/// strictly before `cycle` (filled in by the caller, which owns
/// detection bookkeeping and keeps one cycle-ordered detection list per
/// batch that every snapshot indexes a prefix of). Resuming from a
/// snapshot is therefore bit-identical to a from-scratch run,
/// deterministic counters included.
#[derive(Debug, Clone)]
pub(crate) struct BatchCkpt {
    /// The cycle the snapshot resumes at (state *entering* this cycle).
    pub(crate) cycle: usize,
    /// Live fault mask entering `cycle`.
    pub(crate) live: u64,
    /// Faulty flip-flop planes entering `cycle`.
    pub(crate) ff: Vec<Planes>,
    /// Flip-flop indices flagged dirty entering `cycle`.
    pub(crate) dirty_dffs: Vec<u32>,
    /// Cumulative kernel stats over cycles `0..cycle`.
    pub(crate) stats: BatchStats,
    /// Length of the batch's detection-list prefix recorded before
    /// `cycle`.
    pub(crate) found_len: usize,
}

/// Cycle interval between state snapshots: coarse enough to keep the
/// capture overhead negligible, fine enough that a resume rarely
/// replays more than a few cycles it could have skipped.
pub(crate) fn snapshot_interval(len: usize) -> usize {
    (len / 8).clamp(4, 64)
}

/// One fault batch's injections, flattened into sorted arrays.
///
/// All gate-indexed entries are keyed by *topological position* (not
/// `GateId`), so both kernels can merge them into their topo-order
/// stepping loop with monotone cursors.
#[derive(Debug, Clone, Default)]
pub(crate) struct Schedule {
    /// Stem injections on primary inputs: (PI index, net, f1, f0).
    pub(crate) src_pi: Vec<(u32, u32, u64, u64)>,
    /// Stem injections on DFF outputs: (DFF index, net, f1, f0).
    pub(crate) src_dff: Vec<(u32, u32, u64, u64)>,
    /// Stem injections on constant nets: (net, value, f1, f0).
    pub(crate) src_const: Vec<(u32, bool, u64, u64)>,
    /// Stem injections on gate outputs: (topo position, f1, f0), sorted.
    pub(crate) gate_stems: Vec<(u32, u64, u64)>,
    /// Gate-pin injections: (topo position, pin, f1, f0), sorted.
    pub(crate) pins: Vec<(u32, u32, u64, u64)>,
    /// DFF-data injections: (DFF index, f1, f0), sorted.
    pub(crate) dffs: Vec<(u32, u64, u64)>,
    /// Cone seeds: (net, fault bits first observable there). Stems seed
    /// their own net; pin faults seed the consuming gate's output;
    /// DFF-data faults seed the flip-flop's state output.
    pub(crate) seeds: Vec<(u32, u64)>,
    /// Conditional (activation-gated) injections, overlaid per cycle.
    /// Empty for pure stuck-at batches — the static arrays above are
    /// then used directly, with zero per-cycle cost.
    pub(crate) cond: Vec<CondInj>,
}

impl Schedule {
    /// Builds the schedule for one chunk of up to [`BATCH_FAULTS`] indexed
    /// faults; fault `k` of the chunk occupies machine bit `k + 1`.
    pub(crate) fn build(c: &Circuit, cc: &CompiledCircuit, faults: &[(usize, Fault)]) -> Schedule {
        debug_assert!(faults.len() <= BATCH_FAULTS);
        let mut sched = Schedule::default();
        // (slot, key1, key2, watch, slow_to, bit): resolved to array
        // indices after the sorts below.
        let mut cond_raw: Vec<(InjSlot, u32, u32, u32, bool, u64)> = Vec::new();
        let seed = |sched: &mut Schedule, net: u32, bits: u64| {
            if let Some(e) = sched.seeds.iter_mut().find(|(n, _)| *n == net) {
                e.1 |= bits;
            } else {
                sched.seeds.push((net, bits));
            }
        };
        for (k, &(_, f)) in faults.iter().enumerate() {
            let bit = 1u64 << (k + 1);
            // A stuck-at fault contributes its masks statically; a
            // transition-delay fault contributes a zero-mask entry plus a
            // conditional component that ORs the effect in on activation
            // cycles. The effect polarity (force the *old* value) is
            // derived from `slow_to` at overlay time.
            let (f1, f0, cond) = match f {
                Fault::StuckAt { stuck, .. } => {
                    if stuck {
                        (bit, 0, None)
                    } else {
                        (0, bit, None)
                    }
                }
                Fault::TransitionDelay { site, slow_to } => {
                    let watch = match site {
                        FaultSite::Stem(net) => net.index() as u32,
                        FaultSite::GatePin { gate, pin } => c.gate(gate).inputs[pin].index() as u32,
                        FaultSite::DffData(k) => cc.dff_d[k],
                    };
                    (0, 0, Some((watch, slow_to)))
                }
            };
            match f.site() {
                FaultSite::Stem(net) => {
                    let n = net.index() as u32;
                    seed(&mut sched, n, bit);
                    let slot = match c.driver(net) {
                        Driver::Gate(gid) => {
                            let pos = cc.topo_pos[gid.index()];
                            merge3(&mut sched.gate_stems, pos, f1, f0);
                            (InjSlot::GateStem, pos, 0)
                        }
                        Driver::Input(pi) => {
                            merge_src(&mut sched.src_pi, pi as u32, n, f1, f0);
                            (InjSlot::SrcPi, pi as u32, 0)
                        }
                        Driver::Dff(k) => {
                            merge_src(&mut sched.src_dff, k as u32, n, f1, f0);
                            (InjSlot::SrcDff, k as u32, 0)
                        }
                        Driver::Const(v) => {
                            if let Some(e) =
                                sched.src_const.iter_mut().find(|(cn, _, _, _)| *cn == n)
                            {
                                e.2 |= f1;
                                e.3 |= f0;
                            } else {
                                sched.src_const.push((n, v, f1, f0));
                            }
                            (InjSlot::SrcConst, n, 0)
                        }
                        Driver::Undriven => unreachable!("levelized circuits have no undriven net"),
                    };
                    if let Some((watch, slow_to)) = cond {
                        cond_raw.push((slot.0, slot.1, slot.2, watch, slow_to, bit));
                    }
                }
                FaultSite::GatePin { gate, pin } => {
                    let pos = cc.topo_pos[gate.index()];
                    let out = cc.out_nets[pos as usize];
                    seed(&mut sched, out, bit);
                    if let Some(e) = sched
                        .pins
                        .iter_mut()
                        .find(|(p, q, _, _)| *p == pos && *q == pin as u32)
                    {
                        e.2 |= f1;
                        e.3 |= f0;
                    } else {
                        sched.pins.push((pos, pin as u32, f1, f0));
                    }
                    if let Some((watch, slow_to)) = cond {
                        cond_raw.push((InjSlot::Pin, pos, pin as u32, watch, slow_to, bit));
                    }
                }
                FaultSite::DffData(k) => {
                    seed(&mut sched, cc.dff_q[k], bit);
                    merge3(&mut sched.dffs, k as u32, f1, f0);
                    if let Some((watch, slow_to)) = cond {
                        cond_raw.push((InjSlot::Dff, k as u32, 0, watch, slow_to, bit));
                    }
                }
            }
        }
        sched.src_pi.sort_unstable_by_key(|e| e.0);
        sched.src_dff.sort_unstable_by_key(|e| e.0);
        sched.src_const.sort_unstable_by_key(|e| e.0);
        sched.gate_stems.sort_unstable_by_key(|e| e.0);
        sched.pins.sort_unstable_by_key(|e| (e.0, e.1));
        sched.dffs.sort_unstable_by_key(|e| e.0);
        sched.seeds.sort_unstable_by_key(|e| e.0);
        for (slot, k1, k2, watch, slow_to, bit) in cond_raw {
            let idx = match slot {
                InjSlot::SrcPi => sched.src_pi.iter().position(|e| e.0 == k1),
                InjSlot::SrcDff => sched.src_dff.iter().position(|e| e.0 == k1),
                InjSlot::SrcConst => sched.src_const.iter().position(|e| e.0 == k1),
                InjSlot::GateStem => sched.gate_stems.iter().position(|e| e.0 == k1),
                InjSlot::Pin => sched.pins.iter().position(|e| e.0 == k1 && e.1 == k2),
                InjSlot::Dff => sched.dffs.iter().position(|e| e.0 == k1),
            }
            .expect("conditional injection targets an entry created above");
            sched.cond.push(CondInj {
                slot,
                idx: idx as u32,
                watch,
                slow_to,
                bit,
            });
        }
        sched
    }

    /// The schedule's injection arrays as consumed by one cycle, with no
    /// conditional components (valid whenever `cond` is empty).
    pub(crate) fn static_view(&self) -> CycleInj<'_> {
        CycleInj {
            src_pi: &self.src_pi,
            src_dff: &self.src_dff,
            src_const: &self.src_const,
            gate_stems: &self.gate_stems,
            pins: &self.pins,
            dffs: &self.dffs,
        }
    }
}

/// The effective injection masks for one cycle: either the schedule's
/// static arrays (pure stuck-at) or a [`MaskBuf`] overlay with this
/// cycle's active conditional components OR-ed in. Entry order and keys
/// are identical either way, so the kernels' monotone cursors are
/// oblivious to which source they read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleInj<'a> {
    pub(crate) src_pi: &'a [(u32, u32, u64, u64)],
    pub(crate) src_dff: &'a [(u32, u32, u64, u64)],
    pub(crate) src_const: &'a [(u32, bool, u64, u64)],
    pub(crate) gate_stems: &'a [(u32, u64, u64)],
    pub(crate) pins: &'a [(u32, u32, u64, u64)],
    pub(crate) dffs: &'a [(u32, u64, u64)],
}

/// Per-worker scratch holding one cycle's effective injection masks when
/// a batch carries conditional injections. Buffers are reused across
/// cycles and batches (clear + extend), so the steady-state cycle loop
/// performs no allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaskBuf {
    src_pi: Vec<(u32, u32, u64, u64)>,
    src_dff: Vec<(u32, u32, u64, u64)>,
    src_const: Vec<(u32, bool, u64, u64)>,
    gate_stems: Vec<(u32, u64, u64)>,
    pins: Vec<(u32, u32, u64, u64)>,
    dffs: Vec<(u32, u64, u64)>,
}

impl MaskBuf {
    pub(crate) fn new() -> MaskBuf {
        MaskBuf::default()
    }

    /// Rebuilds the effective masks for cycle `u`: copies the static
    /// arrays, then ORs in every conditional injection whose activation
    /// condition holds on the fault-free machine. The launch value at
    /// cycle 0 comes from `prev0` (the good net values entering the
    /// sequence — `None` means the all-`X` start, which never launches).
    fn refresh(&mut self, sched: &Schedule, trace: &GoodTrace, u: usize, prev0: Option<&[Logic3]>) {
        self.src_pi.clear();
        self.src_pi.extend_from_slice(&sched.src_pi);
        self.src_dff.clear();
        self.src_dff.extend_from_slice(&sched.src_dff);
        self.src_const.clear();
        self.src_const.extend_from_slice(&sched.src_const);
        self.gate_stems.clear();
        self.gate_stems.extend_from_slice(&sched.gate_stems);
        self.pins.clear();
        self.pins.extend_from_slice(&sched.pins);
        self.dffs.clear();
        self.dffs.extend_from_slice(&sched.dffs);
        for ci in &sched.cond {
            let n = ci.watch as usize;
            let cur = trace.value(u, n);
            let prev = if u > 0 {
                trace.value(u - 1, n)
            } else {
                match prev0 {
                    Some(p) => p[n],
                    None => Logic3::X,
                }
            };
            if cur == ci.slow_to.into() && prev == (!ci.slow_to).into() {
                // The slow site still shows the old value in the capture
                // cycle: slow-to-rise forces 0, slow-to-fall forces 1.
                let (a1, a0) = if ci.slow_to { (0, ci.bit) } else { (ci.bit, 0) };
                let i = ci.idx as usize;
                match ci.slot {
                    InjSlot::SrcPi => {
                        self.src_pi[i].2 |= a1;
                        self.src_pi[i].3 |= a0;
                    }
                    InjSlot::SrcDff => {
                        self.src_dff[i].2 |= a1;
                        self.src_dff[i].3 |= a0;
                    }
                    InjSlot::SrcConst => {
                        self.src_const[i].2 |= a1;
                        self.src_const[i].3 |= a0;
                    }
                    InjSlot::GateStem => {
                        self.gate_stems[i].1 |= a1;
                        self.gate_stems[i].2 |= a0;
                    }
                    InjSlot::Pin => {
                        self.pins[i].2 |= a1;
                        self.pins[i].3 |= a0;
                    }
                    InjSlot::Dff => {
                        self.dffs[i].1 |= a1;
                        self.dffs[i].2 |= a0;
                    }
                }
            }
        }
    }

    fn view(&self) -> CycleInj<'_> {
        CycleInj {
            src_pi: &self.src_pi,
            src_dff: &self.src_dff,
            src_const: &self.src_const,
            gate_stems: &self.gate_stems,
            pins: &self.pins,
            dffs: &self.dffs,
        }
    }
}

fn merge3(v: &mut Vec<(u32, u64, u64)>, key: u32, f1: u64, f0: u64) {
    if let Some(e) = v.iter_mut().find(|(k, _, _)| *k == key) {
        e.1 |= f1;
        e.2 |= f0;
    } else {
        v.push((key, f1, f0));
    }
}

fn merge_src(v: &mut Vec<(u32, u32, u64, u64)>, key: u32, net: u32, f1: u64, f0: u64) {
    if let Some(e) = v.iter_mut().find(|(k, _, _, _)| *k == key) {
        e.2 |= f1;
        e.3 |= f0;
    } else {
        v.push((key, net, f1, f0));
    }
}

/// Per-worker scratch for the dirty-set kernel. All buffers are
/// allocated once (per worker, per query) and reused across batches and
/// cycles — the cycle loop itself never allocates.
#[derive(Debug, Clone)]
pub(crate) struct ConeScratch {
    /// Per-net fault mask: which machine bits can *ever* differ from
    /// good here (the sequential reachability cone).
    mask: Vec<u64>,
    /// Worklist for the mask propagation (net indices).
    worklist: Vec<u32>,
    /// Nets whose mask is non-zero, in discovery order.
    cone_nets: Vec<u32>,
    /// Per-net flag: planes currently differ from the good machine on a
    /// live bit. Valid within one cycle; cleared by walking `dirty_nets`.
    dirty: Vec<bool>,
    /// Nets dirty this cycle, in evaluation order.
    dirty_nets: Vec<u32>,
    /// Bitmap worklist over gate topo positions scheduled this cycle.
    sched_bits: Vec<u64>,
    /// Bitmap over flip-flops whose next state must be examined.
    cand_bits: Vec<u64>,
    /// Per-flip-flop flag: stored planes differ from the good machine.
    /// Persistent across cycles of one run.
    dff_dirty: Vec<bool>,
    /// Flip-flops currently dirty, ascending.
    dirty_dffs: Vec<u32>,
    /// Per-net flag: observed net inside the reachability cone.
    is_observed: Vec<bool>,
    /// Nets flagged in `is_observed`, for O(|cone ∩ observed|) clearing.
    obs_list: Vec<u32>,
}

impl ConeScratch {
    pub(crate) fn new(cc: &CompiledCircuit) -> ConeScratch {
        ConeScratch {
            mask: vec![0; cc.num_nets],
            worklist: Vec::with_capacity(cc.num_nets),
            cone_nets: Vec::with_capacity(cc.num_nets),
            dirty: vec![false; cc.num_nets],
            dirty_nets: Vec::with_capacity(cc.num_nets),
            sched_bits: vec![0; cc.num_gates.div_ceil(64)],
            cand_bits: vec![0; cc.num_dffs.div_ceil(64)],
            dff_dirty: vec![false; cc.num_dffs],
            dirty_dffs: Vec::with_capacity(cc.num_dffs),
            is_observed: vec![false; cc.num_nets],
            obs_list: Vec::with_capacity(cc.observed.len()),
        }
    }

    /// Computes the per-net fault masks for `seeds`, restricted to
    /// `live` bits: a monotone worklist closure over gate fanout and
    /// flip-flop boundaries.
    fn propagate(&mut self, cc: &CompiledCircuit, seeds: &[(u32, u64)], live: u64) {
        for &n in &self.cone_nets {
            self.mask[n as usize] = 0;
        }
        self.cone_nets.clear();
        self.worklist.clear();
        for &(n, bits) in seeds {
            let bits = bits & live;
            if bits != 0 && self.mask[n as usize] == 0 {
                self.cone_nets.push(n);
            }
            if bits != 0 {
                self.mask[n as usize] |= bits;
                self.worklist.push(n);
            }
        }
        while let Some(n) = self.worklist.pop() {
            let m = self.mask[n as usize];
            let s = cc.load_start[n as usize] as usize;
            let e = cc.load_start[n as usize + 1] as usize;
            for &code in &cc.load_codes[s..e] {
                let out = if (code as usize) < cc.num_gates {
                    cc.out_nets[code as usize]
                } else {
                    cc.dff_q[code as usize - cc.num_gates]
                };
                let cur = self.mask[out as usize];
                if cur | m != cur {
                    if cur == 0 {
                        self.cone_nets.push(out);
                    }
                    self.mask[out as usize] = cur | m;
                    self.worklist.push(out);
                }
            }
        }
    }

    /// Test-only view of the per-net fault mask (after [`run_batch`]).
    #[cfg(test)]
    pub(crate) fn mask_of(&self, net: usize) -> u64 {
        self.mask[net]
    }

    /// Test-only cone computation entry point.
    #[cfg(test)]
    pub(crate) fn propagate_for_test(
        &mut self,
        cc: &CompiledCircuit,
        seeds: &[(u32, u64)],
        live: u64,
    ) {
        self.propagate(cc, seeds, live);
    }
}

/// What one evaluated cycle exposes to the query-specific sink.
pub(crate) struct CycleCtx<'a> {
    /// Net planes after this cycle's evaluation. Only the nets listed in
    /// `cone_nets` are current; everything else may be stale — clean
    /// nets carry the fault-free value on all live bits.
    pub(crate) nets: &'a [Planes],
    /// OR of `diff_from_good` over the observed nets that can differ.
    /// May carry bits of already-dropped machines; mask with `live`.
    pub(crate) obs_diff: u64,
    /// Machine bits still carrying live faults.
    pub(crate) live: u64,
    /// Nets whose planes differ from the good machine this cycle (the
    /// dirty set; the whole netlist under the reference kernel).
    pub(crate) cone_nets: &'a [u32],
}

/// Deterministic effort accounting for one batch run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchStats {
    /// Cycles actually evaluated.
    pub(crate) cycles: usize,
    /// Gate evaluations performed.
    pub(crate) gates_evaluated: u64,
    /// Gate evaluations avoided by cone restriction.
    pub(crate) gates_skipped: u64,
    /// Live fault-cycles: per evaluated cycle, the number of faults
    /// still live at its start.
    pub(crate) fault_cycles: u64,
}

/// Drives one batch through `seq` with dirty-set evaluation.
///
/// After every evaluated cycle the `sink` is called with a [`CycleCtx`]
/// and returns `(drop_bits, stop)`: `drop_bits` are removed from the
/// live mask (shrinking the dirty set), and `stop` ends the run early.
/// The run also ends when the live mask empties.
///
/// `ff` holds the batch's persistent flip-flop planes. Planes of
/// flip-flops that end the run clean are synced to the broadcast good
/// state, so at every query boundary `ff` matches the reference kernel
/// on `live | 1` bits exactly.
///
/// With `resume`, the run starts at the snapshot's cycle instead of 0:
/// the caller must have loaded `ff` from the snapshot, and `trace` must
/// agree with the snapshot's originating trace on all cycles before the
/// snapshot (a shared input prefix guarantees this). The passed `live`
/// mask is ignored in favor of the snapshot's. With `snap`, the
/// complete batch state is captured into the vector at checkpointed
/// cycle boundaries (see [`snapshot_interval`]) and at the final cycle.
///
/// `prev0` supplies the fault-free net values *entering* cycle 0 (for
/// incremental segments); `None` is the all-`X` start. It only gates
/// conditional-injection launches at cycle 0 — cycles past the first
/// read their launch value from the trace itself.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batch(
    cc: &CompiledCircuit,
    sched: &Schedule,
    mut live: u64,
    seq: &TestSequence,
    trace: &GoodTrace,
    prev0: Option<&[Logic3]>,
    ff: &mut [Planes],
    nets: &mut [Planes],
    cone: &mut ConeScratch,
    buf: &mut MaskBuf,
    resume: Option<&BatchCkpt>,
    mut snap: Option<&mut Vec<BatchCkpt>>,
    mut sink: impl FnMut(usize, &CycleCtx<'_>) -> (u64, bool),
) -> (u64, BatchStats) {
    debug_assert_eq!(trace.len(), seq.len());
    let has_cond = !sched.cond.is_empty();
    let (start, mut stats) = match resume {
        Some(ck) => {
            debug_assert!(ck.cycle <= seq.len());
            debug_assert_eq!(ck.ff.len(), cc.num_dffs);
            live = ck.live;
            (ck.cycle, ck.stats)
        }
        None => (0, BatchStats::default()),
    };
    cone.propagate(cc, &sched.seeds, live);
    let ConeScratch {
        mask,
        dirty,
        dirty_nets,
        sched_bits,
        cand_bits,
        dff_dirty,
        dirty_dffs,
        is_observed,
        obs_list,
        ..
    } = &mut *cone;
    // Detection sites: observed nets the reachability cone can touch.
    for &n in obs_list.iter() {
        is_observed[n as usize] = false;
    }
    obs_list.clear();
    for &n in &cc.observed {
        if mask[n as usize] != 0 {
            is_observed[n as usize] = true;
            obs_list.push(n);
        }
    }
    // Flip-flops whose stored planes already differ from the good
    // machine's starting state (contamination from earlier queries).
    for &k in dirty_dffs.iter() {
        dff_dirty[k as usize] = false;
    }
    dirty_dffs.clear();
    if let Some(ck) = resume {
        // Restore the snapshot's explicit dirty set instead of rescanning:
        // a flip-flop whose planes converged to the good machine while
        // flagged stays flagged until its next examination, and a rescan
        // would drop it early and change the evaluation schedule.
        for &k in &ck.dirty_dffs {
            dff_dirty[k as usize] = true;
            dirty_dffs.push(k);
        }
    } else if !seq.is_empty() {
        for (k, f) in ff.iter().enumerate() {
            let good = trace.planes(0, cc.dff_q[k] as usize);
            if (((f.ones ^ good.ones) | (f.zeros ^ good.zeros)) & (live | 1)) != 0 {
                dff_dirty[k] = true;
                dirty_dffs.push(k as u32);
            }
        }
    }
    let interval = snapshot_interval(seq.len());
    // A snapshot taken after the live mask died resumes past the loop,
    // the same way the from-scratch run broke out of it.
    let run_cycles = resume.is_none() || live != 0;
    for u in start..seq.len() {
        if !run_cycles {
            break;
        }
        stats.cycles = u + 1;
        stats.fault_cycles += live.count_ones() as u64;
        let mut evaluated = 0u64;
        let inj = if has_cond {
            buf.refresh(sched, trace, u, prev0);
            buf.view()
        } else {
            sched.static_view()
        };

        // Dirty stored state enters on the flip-flop output nets; the
        // flip-flop itself must be re-examined this cycle so it can go
        // clean again.
        for &k in dirty_dffs.iter() {
            let k = k as usize;
            let q = cc.dff_q[k];
            nets[q as usize] = ff[k];
            if !dirty[q as usize] {
                dirty[q as usize] = true;
                dirty_nets.push(q);
            }
            mark_loads(cc, sched_bits, cand_bits, q);
            cand_bits[k >> 6] |= 1 << (k & 63);
        }
        // Sources carrying live stem injections. The fault-free base is
        // exactly the good value (or the stored planes for a dirty
        // flip-flop), and the result is marked dirty conservatively.
        let row = seq.row(u);
        for &(pi, n, f1, f0) in inj.src_pi {
            let (f1, f0) = (f1 & live, f0 & live);
            if (f1 | f0) != 0 {
                nets[n as usize] = Planes::broadcast(row[pi as usize]).inject(f1, f0);
                if !dirty[n as usize] {
                    dirty[n as usize] = true;
                    dirty_nets.push(n);
                }
                mark_loads(cc, sched_bits, cand_bits, n);
            }
        }
        for &(k, n, f1, f0) in inj.src_dff {
            let (f1, f0) = (f1 & live, f0 & live);
            if (f1 | f0) != 0 {
                let base = if dff_dirty[k as usize] {
                    ff[k as usize]
                } else {
                    trace.planes(u, n as usize)
                };
                nets[n as usize] = base.inject(f1, f0);
                if !dirty[n as usize] {
                    dirty[n as usize] = true;
                    dirty_nets.push(n);
                }
                mark_loads(cc, sched_bits, cand_bits, n);
            }
        }
        for &(n, v, f1, f0) in inj.src_const {
            let (f1, f0) = (f1 & live, f0 & live);
            if (f1 | f0) != 0 {
                nets[n as usize] = Planes::broadcast(v).inject(f1, f0);
                if !dirty[n as usize] {
                    dirty[n as usize] = true;
                    dirty_nets.push(n);
                }
                mark_loads(cc, sched_bits, cand_bits, n);
            }
        }
        // Gates carrying live injections run unconditionally — their
        // operands may all be clean.
        for &(pos, f1, f0) in inj.gate_stems {
            if ((f1 | f0) & live) != 0 {
                sched_bits[(pos >> 6) as usize] |= 1 << (pos & 63);
            }
        }
        for &(pos, _, f1, f0) in inj.pins {
            if ((f1 | f0) & live) != 0 {
                sched_bits[(pos >> 6) as usize] |= 1 << (pos & 63);
            }
        }
        // Forward sweep over the scheduled-gate bitmap, always taking
        // the lowest pending position. A gate's loads sit at strictly
        // later topo positions, so new work can only land ahead of the
        // scan point: evaluation order is globally ascending, every
        // gate runs at most once per cycle with fresh operands, and the
        // monotone injection cursors stay valid.
        let mut is = 0usize;
        let mut ip = 0usize;
        let mut w = 0usize;
        while w < sched_bits.len() {
            let bits = sched_bits[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            {
                let pos = (w << 6) + bits.trailing_zeros() as usize;
                sched_bits[w] = bits & (bits - 1);
                evaluated += 1;
                let v = eval_gate(cc, inj, pos, &mut is, &mut ip, |n: u32| {
                    if dirty[n as usize] {
                        nets[n as usize]
                    } else {
                        trace.planes(u, n as usize)
                    }
                });
                let out = cc.out_nets[pos] as usize;
                nets[out] = v;
                let good = trace.planes(u, out);
                if (((v.ones ^ good.ones) | (v.zeros ^ good.zeros)) & (live | 1)) != 0
                    && !dirty[out]
                {
                    dirty[out] = true;
                    dirty_nets.push(out as u32);
                    mark_loads(cc, sched_bits, cand_bits, out as u32);
                }
            }
        }
        // Next-state examination: flip-flops whose data net went dirty,
        // whose stored planes were dirty, or that carry live injections.
        for &(k, f1, f0) in inj.dffs {
            if ((f1 | f0) & live) != 0 {
                cand_bits[(k >> 6) as usize] |= 1 << (k & 63);
            }
        }
        dirty_dffs.clear();
        let mut id = 0usize;
        for (w, word) in cand_bits.iter_mut().enumerate() {
            let mut bits = *word;
            *word = 0;
            while bits != 0 {
                let k = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let d = cc.dff_d[k] as usize;
                let mut v = if dirty[d] {
                    nets[d]
                } else {
                    trace.planes(u, d)
                };
                while id < inj.dffs.len() && (inj.dffs[id].0 as usize) < k {
                    id += 1;
                }
                if id < inj.dffs.len() && inj.dffs[id].0 as usize == k {
                    let (_, f1, f0) = inj.dffs[id];
                    v = v.inject(f1 & live, f0 & live);
                }
                let good = trace.planes(u, d);
                if (((v.ones ^ good.ones) | (v.zeros ^ good.zeros)) & (live | 1)) != 0 {
                    ff[k] = v;
                    dff_dirty[k] = true;
                    dirty_dffs.push(k as u32);
                } else {
                    dff_dirty[k] = false;
                }
            }
        }
        // Detection sites: only dirty observed nets can differ.
        let mut obs_diff = 0;
        for &n in dirty_nets.iter() {
            if is_observed[n as usize] {
                obs_diff |= nets[n as usize].diff_from_good();
            }
        }
        stats.gates_evaluated += evaluated;
        stats.gates_skipped += cc.num_gates as u64 - evaluated;
        let ctx = CycleCtx {
            nets,
            obs_diff,
            live,
            cone_nets: dirty_nets,
        };
        let (drop, stop) = sink(u, &ctx);
        for &n in dirty_nets.iter() {
            dirty[n as usize] = false;
        }
        dirty_nets.clear();
        live &= !drop;
        if let Some(snaps) = snap.as_deref_mut() {
            if (u + 1) % interval == 0 || u + 1 == seq.len() || live == 0 || stop {
                snaps.push(BatchCkpt {
                    cycle: u + 1,
                    live,
                    ff: ff.to_vec(),
                    dirty_dffs: dirty_dffs.clone(),
                    stats,
                    found_len: 0,
                });
            }
        }
        if live == 0 || stop {
            break;
        }
    }
    // Clean flip-flops hold the good machine's final state; sync their
    // planes so the persistent batch state is valid at the query
    // boundary.
    if stats.cycles > 0 {
        let last = stats.cycles - 1;
        for k in 0..cc.num_dffs {
            if !dff_dirty[k] {
                ff[k] = trace.planes(last, cc.dff_d[k] as usize);
            }
        }
    }
    (live, stats)
}

/// Schedules every consumer of `net`: gate loads into the gate bitmap,
/// flip-flop data loads into the candidate bitmap.
#[inline]
fn mark_loads(cc: &CompiledCircuit, sched_bits: &mut [u64], cand_bits: &mut [u64], net: u32) {
    let s = cc.load_start[net as usize] as usize;
    let e = cc.load_start[net as usize + 1] as usize;
    for &code in &cc.load_codes[s..e] {
        let code = code as usize;
        if code < cc.num_gates {
            sched_bits[code >> 6] |= 1 << (code & 63);
        } else {
            let k = code - cc.num_gates;
            cand_bits[k >> 6] |= 1 << (k & 63);
        }
    }
}

/// The historic full-walk kernel, kept as a differential-testing oracle
/// behind `SimOptions::reference_kernel`: every cycle writes every
/// source, evaluates every gate and updates every flip-flop, with no
/// good-trace sharing and no cone restriction. It shares the injection
/// [`Schedule`] (cursor merge instead of the original `HashMap` probes)
/// and the sink contract with [`run_batch`], so any divergence between
/// the two kernels is in the cone machinery, not the plumbing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batch_reference(
    cc: &CompiledCircuit,
    sched: &Schedule,
    mut live: u64,
    seq: &TestSequence,
    trace: &GoodTrace,
    prev0: Option<&[Logic3]>,
    ff: &mut [Planes],
    nets: &mut [Planes],
    buf: &mut MaskBuf,
    mut sink: impl FnMut(usize, &CycleCtx<'_>) -> (u64, bool),
) -> (u64, BatchStats) {
    debug_assert_eq!(trace.len(), seq.len());
    let has_cond = !sched.cond.is_empty();
    nets.fill(Planes::ALL_X);
    let mut stats = BatchStats::default();
    for u in 0..seq.len() {
        stats.cycles = u + 1;
        stats.gates_evaluated += cc.num_gates as u64;
        stats.fault_cycles += live.count_ones() as u64;
        // The trace feeds only conditional-injection activation: the
        // reference machine's own evolution stays trace-free.
        let inj = if has_cond {
            buf.refresh(sched, trace, u, prev0);
            buf.view()
        } else {
            sched.static_view()
        };
        let row = seq.row(u);
        for (pi, &n) in cc.pi_nets.iter().enumerate() {
            nets[n as usize] = Planes::broadcast(row[pi]);
        }
        for (k, &q) in cc.dff_q.iter().enumerate() {
            nets[q as usize] = ff[k];
        }
        for &(n, v) in &cc.const_vals {
            nets[n as usize] = Planes::broadcast(v);
        }
        // Source stem injections, applied unconditionally — dropped bit
        // lanes keep carrying their faulty values, exactly like the
        // original kernel.
        for &(_, n, f1, f0) in inj.src_pi {
            nets[n as usize] = nets[n as usize].inject(f1, f0);
        }
        for &(_, n, f1, f0) in inj.src_dff {
            nets[n as usize] = nets[n as usize].inject(f1, f0);
        }
        for &(n, _, f1, f0) in inj.src_const {
            nets[n as usize] = nets[n as usize].inject(f1, f0);
        }
        let mut is = 0usize;
        let mut ip = 0usize;
        for pos in 0..cc.num_gates {
            let v = eval_gate(cc, inj, pos, &mut is, &mut ip, |n: u32| nets[n as usize]);
            nets[cc.out_nets[pos] as usize] = v;
        }
        let mut id = 0usize;
        for k in 0..cc.num_dffs {
            let mut v = nets[cc.dff_d[k] as usize];
            while id < inj.dffs.len() && (inj.dffs[id].0 as usize) < k {
                id += 1;
            }
            if id < inj.dffs.len() && inj.dffs[id].0 as usize == k {
                let (_, f1, f0) = inj.dffs[id];
                v = v.inject(f1, f0);
            }
            ff[k] = v;
        }
        let mut obs_diff = 0;
        for &n in &cc.observed {
            obs_diff |= nets[n as usize].diff_from_good();
        }
        let ctx = CycleCtx {
            nets,
            obs_diff,
            live,
            cone_nets: &cc.all_nets,
        };
        let (drop, stop) = sink(u, &ctx);
        live &= !drop;
        if live == 0 || stop {
            break;
        }
    }
    (live, stats)
}

/// Evaluates one topo-position gate: advances the stem/pin cursors to
/// `pos`, folds the operand planes (with pin injections merged in) and
/// applies any output-stem injection. Shared by both kernels; the
/// `read` closure abstracts where operand planes come from — the net
/// array for the reference kernel, the dirty-set/good-trace split for
/// the compiled kernel.
#[inline]
fn eval_gate(
    cc: &CompiledCircuit,
    inj: CycleInj<'_>,
    pos: usize,
    is: &mut usize,
    ip: &mut usize,
    read: impl Fn(u32) -> Planes + Copy,
) -> Planes {
    while *is < inj.gate_stems.len() && (inj.gate_stems[*is].0 as usize) < pos {
        *is += 1;
    }
    while *ip < inj.pins.len() && (inj.pins[*ip].0 as usize) < pos {
        *ip += 1;
    }
    let s = cc.in_start[pos] as usize;
    let e = cc.in_start[pos + 1] as usize;
    let has_pin_inj = *ip < inj.pins.len() && inj.pins[*ip].0 as usize == pos;
    let ip = *ip;
    let mut acc = if has_pin_inj {
        fetch_injected(inj, pos, 0, cc.in_nets[s], ip, read)
    } else {
        read(cc.in_nets[s])
    };
    match cc.kinds[pos] {
        GateKind::And | GateKind::Nand => {
            for (pin, &i) in cc.in_nets[s + 1..e].iter().enumerate() {
                let v = if has_pin_inj {
                    fetch_injected(inj, pos, pin + 1, i, ip, read)
                } else {
                    read(i)
                };
                acc = acc.and(v);
            }
        }
        GateKind::Or | GateKind::Nor => {
            for (pin, &i) in cc.in_nets[s + 1..e].iter().enumerate() {
                let v = if has_pin_inj {
                    fetch_injected(inj, pos, pin + 1, i, ip, read)
                } else {
                    read(i)
                };
                acc = acc.or(v);
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            for (pin, &i) in cc.in_nets[s + 1..e].iter().enumerate() {
                let v = if has_pin_inj {
                    fetch_injected(inj, pos, pin + 1, i, ip, read)
                } else {
                    read(i)
                };
                acc = acc.xor(v);
            }
        }
        GateKind::Not | GateKind::Buf => {}
    }
    if cc.kinds[pos].inverting() {
        acc = acc.not();
    }
    if *is < inj.gate_stems.len() && inj.gate_stems[*is].0 as usize == pos {
        let (_, f1, f0) = inj.gate_stems[*is];
        acc = acc.inject(f1, f0);
    }
    acc
}

/// Fetches one gate operand with its pin injection, scanning forward
/// from the pin cursor. Only called for the rare gates that carry pin
/// injections.
#[inline]
fn fetch_injected(
    inj: CycleInj<'_>,
    pos: usize,
    pin: usize,
    net: u32,
    ip: usize,
    read: impl Fn(u32) -> Planes,
) -> Planes {
    let v = read(net);
    let mut i = ip;
    while i < inj.pins.len() && inj.pins[i].0 as usize == pos {
        if inj.pins[i].1 as usize == pin {
            let (_, _, f1, f0) = inj.pins[i];
            return v.inject(f1, f0);
        }
        i += 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbist_netlist::{bench_format, NetId};

    fn toy() -> Circuit {
        bench_format::parse(
            "toy",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(g)\ng = NAND(a, q)\ny = XOR(g, b)\n",
        )
        .unwrap()
    }

    #[test]
    fn csr_matches_circuit() {
        let c = toy();
        let cc = CompiledCircuit::build(&c);
        assert_eq!(cc.num_nets, c.num_nets());
        assert_eq!(cc.num_gates, c.num_gates());
        assert_eq!(cc.kinds.len(), 2);
        // Topo order must evaluate g before y.
        assert_eq!(cc.kinds[0], GateKind::Nand);
        assert_eq!(cc.kinds[1], GateKind::Xor);
        let g = c.net_by_name("g").unwrap().index() as u32;
        let y = c.net_by_name("y").unwrap().index() as u32;
        assert_eq!(cc.out_nets, vec![g, y]);
        // g's loads: the XOR gate (topo position 1) and DFF 0's data pin.
        let s = cc.load_start[g as usize] as usize;
        let e = cc.load_start[g as usize + 1] as usize;
        let mut loads: Vec<u32> = cc.load_codes[s..e].to_vec();
        loads.sort_unstable();
        assert_eq!(loads, vec![1, cc.num_gates as u32]);
    }

    #[test]
    fn good_trace_matches_logic_sim() {
        let c = toy();
        let cc = CompiledCircuit::build(&c);
        let seq = TestSequence::parse_rows(&["00", "10", "01", "11"]).unwrap();
        let (trace, final_ff) = cc.good_trace(&seq, &[Logic3::X]);
        let oracle = crate::good::LogicSim::new(&c).trace(&seq).unwrap();
        for u in 0..seq.len() {
            for n in 0..c.num_nets() {
                let expect: Planes = match oracle.value(u, NetId::from_index(n)) {
                    Logic3::One => Planes::ALL_ONE,
                    Logic3::Zero => Planes::ALL_ZERO,
                    Logic3::X => Planes::ALL_X,
                };
                assert_eq!(trace.planes(u, n), expect, "net {n} at {u}");
            }
        }
        let oracle_ff = crate::good::LogicSim::new(&c).final_state(&seq).unwrap();
        assert_eq!(final_ff, oracle_ff);
    }

    #[test]
    fn cone_rebuild_matches_from_scratch_for_every_suffix_shape() {
        let c = toy();
        let cc = CompiledCircuit::build(&c);
        let base_seq = TestSequence::parse_rows(&["00", "10", "01", "11", "10"]).unwrap();
        let (base, _) = cc.good_trace(&base_seq, &[Logic3::X]);
        // Resumed traces must equal the from-scratch trace whether the
        // suffix diverges, extends, or truncates the cached sequence
        // (conservatively flagging every input stream as changed).
        let probes = [
            (vec!["00", "10", "11", "01", "00"], 2usize),
            (vec!["00", "10", "01", "11", "10"], 5),
            (vec!["00", "10", "01"], 3),
            (vec!["00", "10", "01", "11", "10", "01", "00"], 5),
        ];
        for (rows, shared) in probes {
            let seq = TestSequence::parse_rows(&rows).unwrap();
            let (expect, _) = cc.good_trace(&seq, &[Logic3::X]);
            let (got, _) = cc.good_trace_from_cone(&seq, &base, shared, &[true, true]);
            for u in 0..seq.len() {
                for n in 0..c.num_nets() {
                    assert_eq!(
                        got.planes(u, n),
                        expect.planes(u, n),
                        "net {n} at {u} (shared {shared})"
                    );
                }
            }
        }
    }

    #[test]
    fn pi_cones_cross_the_register_boundary() {
        let c = toy();
        let cc = CompiledCircuit::build(&c);
        // PI a feeds the NAND (topo 0), whose output crosses the DFF and
        // also drives the XOR (topo 1): both gates and the DFF are in
        // a's cone. PI b feeds only the XOR.
        assert_eq!(cc.cone_gates_of(0), &[0b11]);
        assert_eq!(cc.cone_dffs_of(0), &[0b1]);
        assert_eq!(cc.cone_gates_of(1), &[0b10]);
        assert_eq!(cc.cone_dffs_of(1), &[0b0]);
    }

    #[test]
    fn spliced_trace_matches_full_for_every_deleted_block() {
        let c = toy();
        let cc = CompiledCircuit::build(&c);
        let rows = ["00", "10", "01", "11", "10", "00", "01", "11"];
        let base_seq = TestSequence::parse_rows(&rows).unwrap();
        let (base, _) = cc.good_trace(&base_seq, &[Logic3::X]);
        let mut rejoined = false;
        for start in 1..rows.len() {
            for gap in 1..=rows.len() - start {
                let omit: Vec<usize> = (start..start + gap).collect();
                let seq = base_seq.without_rows(&omit);
                let (expect, _) = cc.good_trace(&seq, &[Logic3::X]);
                let (got, simulated) = cc.good_trace_from(&seq, &base, start, gap);
                for u in 0..seq.len() {
                    for n in 0..c.num_nets() {
                        assert_eq!(
                            got.planes(u, n),
                            expect.planes(u, n),
                            "net {n} at {u} (block {start}+{gap})"
                        );
                    }
                }
                assert!(simulated <= seq.len() - start);
                rejoined |= simulated < seq.len() - start;
            }
        }
        assert!(rejoined, "some deletion must rejoin the base trace early");
    }

    #[test]
    fn good_trace_from_cone_matches_full() {
        let c = toy();
        let cc = CompiledCircuit::build(&c);
        let base_rows = ["00", "10", "01", "11", "10", "00"];
        let base_seq = TestSequence::parse_rows(&base_rows).unwrap();
        let (base, _) = cc.good_trace(&base_seq, &[Logic3::X]);
        // Flip input 1's stream from each divergence cycle on (plus an
        // extension past the base), and rebuild cone-seeded: the trace,
        // final state and row contents must match the from-scratch
        // trace at every divergence cycle, under both the honest
        // changed-stream flags and the conservative all-changed flags.
        for shared in 1..=base_seq.len() {
            let mut rows: Vec<String> = base_rows.iter().map(|r| r.to_string()).collect();
            for row in rows.iter_mut().skip(shared) {
                let flipped = if &row[1..2] == "0" { "1" } else { "0" };
                *row = format!("{}{}", &row[..1], flipped);
            }
            rows.push("11".into());
            let refs: Vec<&str> = rows.iter().map(String::as_str).collect();
            let seq = TestSequence::parse_rows(&refs).unwrap();
            let (expect, _) = cc.good_trace(&seq, &[Logic3::X]);
            for changed in [vec![false, true], vec![true, true]] {
                let (got, stats) = cc.good_trace_from_cone(&seq, &base, shared, &changed);
                for u in 0..seq.len() {
                    for n in 0..c.num_nets() {
                        assert_eq!(
                            got.planes(u, n),
                            expect.planes(u, n),
                            "net {n} at {u} (shared {shared}, changed {changed:?})"
                        );
                    }
                }
                // The accounting is complete: over the overlapping rows
                // evaluated + saved covers every gate of every cycle,
                // and the extension row is fully evaluated.
                let overlap = (base_seq.len() - shared) as u64;
                let extension = (seq.len() - base_seq.len()) as u64;
                assert_eq!(
                    stats.gates_evaluated + stats.gates_saved,
                    cc.num_gates as u64 * (overlap + extension),
                    "accounting (shared {shared})"
                );
                assert!(
                    stats.gates_saved > 0 || shared == base_seq.len(),
                    "a diverging suffix on this toy must save something"
                );
            }
        }
    }

    #[test]
    fn cone_of_output_stem_is_local() {
        let c = toy();
        let cc = CompiledCircuit::build(&c);
        let mut cone = ConeScratch::new(&cc);
        let y = c.net_by_name("y").unwrap().index();
        // A fault on the PO stem y reaches nothing else: y has no loads.
        cone.propagate_for_test(&cc, &[(y as u32, 0b10)], !0);
        assert_eq!(cone.mask_of(y), 0b10);
        let g = c.net_by_name("g").unwrap().index();
        assert_eq!(cone.mask_of(g), 0);
    }

    #[test]
    fn cone_crosses_the_register_boundary() {
        let c = toy();
        let cc = CompiledCircuit::build(&c);
        let mut cone = ConeScratch::new(&cc);
        // A fault seeded at the DFF state output q contaminates g (NAND
        // reads q), then y, and — through the register (g drives the DFF
        // data input) — stays closed on q itself.
        let q = c.net_by_name("q").unwrap().index();
        let g = c.net_by_name("g").unwrap().index();
        let y = c.net_by_name("y").unwrap().index();
        cone.propagate_for_test(&cc, &[(q as u32, 0b100)], !0);
        assert_eq!(cone.mask_of(q), 0b100);
        assert_eq!(cone.mask_of(g), 0b100, "combinational fanout");
        assert_eq!(cone.mask_of(y), 0b100, "transitive fanout");
        // And the other direction: a fault on g's output crosses the DFF
        // d→q boundary into the next cycle's state.
        let mut cone = ConeScratch::new(&cc);
        cone.propagate_for_test(&cc, &[(g as u32, 0b10)], !0);
        assert_eq!(cone.mask_of(q), 0b10, "cone must cross the register");
        assert_eq!(cone.mask_of(y), 0b10);
    }

    #[test]
    fn dead_bits_are_excluded_from_the_cone() {
        let c = toy();
        let cc = CompiledCircuit::build(&c);
        let mut cone = ConeScratch::new(&cc);
        let g = c.net_by_name("g").unwrap().index();
        // Seed two faults at g, but only one is live.
        cone.propagate_for_test(&cc, &[(g as u32, 0b110)], 0b010);
        assert_eq!(cone.mask_of(g), 0b010);
    }
}
