//! The solve workloads: one large problem per call, run through the
//! degradation ladder on a team of `nproc` threads, and the per-layer
//! probes that time the same problem one layer at a time.

use std::hint::black_box;

use threefive::core::exec::{simd_sweep, try_parallel35d_sweep, Blocking35};
use threefive::core::planner::kappa_35d;
use threefive::core::{check_finite, plan_35d, Plan35D, SevenPoint};
use threefive::grid::{Dim3, DoubleGrid, Grid3};
use threefive::lbm::{
    lbm_naive_sweep, model::Q, scenarios, try_lbm35d_sweep, Lattice, LbmBlocking, LbmMode,
};
use threefive::machine::{core_i7, lbm_traffic, seven_point_traffic, KernelTraffic, Precision};
use threefive::serve_runner::{job_grid, STENCIL_ALPHA};
use threefive::sync::{Instrument, Observer, ThreadTeam};
use threefive::{run_lbm_plan_on_team, run_plan_on_team, RunOptions};

use crate::measure::{digest, splitmix64, Spans, Tally};

/// One problem the benchmark solves: how to build its input, the scalar
/// reference, the ladder call users make, and the bare layer calls.
pub trait Problem {
    /// Grid or lattice state.
    type State;
    /// Blocking the planner chose.
    type Plan: Copy;
    /// Allocates and seeds the input.
    fn build(&self) -> Self::State;
    /// The blocking plan (part of set-up).
    fn plan(&self) -> Self::Plan;
    /// Interior updates one solve performs.
    fn updates(&self) -> u64;
    /// Runs the scalar reference in place.
    fn reference(&self, st: &mut Self::State);
    /// Digest of the current result.
    fn digest(st: &Self::State) -> u64;
    /// Flips one bit of the result (self-test of the correctness check).
    fn corrupt(st: &mut Self::State);
    /// The ladder call: returns the downgrades taken.
    fn solve(
        &self,
        st: &mut Self::State,
        plan: Self::Plan,
        team: &ThreadTeam,
        obs: &Observer<'_>,
    ) -> Result<usize, String>;
    /// The bare 3.5-D engine call: returns (κ, computed DRAM bytes).
    fn engine(
        &self,
        st: &mut Self::State,
        plan: Self::Plan,
        team: &ThreadTeam,
        obs: &Observer<'_>,
    ) -> Result<(f64, f64), String>;
    /// The bare 1-thread SIMD sweep: returns (ops, computed DRAM bytes).
    fn simd(&self, st: &mut Self::State) -> (f64, f64);
    /// One source snapshot, as the ladder takes before its first rung.
    fn snapshot(&self, st: &Self::State);
    /// One NaN/∞ scan of the source, as the ladder runs around each rung.
    fn finite_scan(&self, st: &Self::State) -> bool;
}

fn plan_for(traffic: &KernelTraffic) -> Plan35D {
    let machine = core_i7();
    plan_35d(
        traffic.gamma(Precision::Sp),
        machine.big_gamma(Precision::Sp),
        machine.fast_storage_bytes,
        traffic.elem_bytes(Precision::Sp),
        traffic.radius,
    )
    .expect("the Core i7 model plans both kernels")
}

/// Where a stencil problem's input comes from.
#[derive(Clone, Copy)]
pub enum Field {
    /// A field drawn from the run's seed.
    Seeded(u64),
    /// The service's fixed job grid, as a served job sees it.
    JobGrid,
}

/// 7-point SP heat diffusion on an `n³` grid.
pub struct Stencil {
    n: usize,
    steps: usize,
    field: Field,
    /// Forced blocking (a served job's spec); `None` asks the planner.
    forced: Option<Plan35D>,
    kernel: SevenPoint<f32>,
}

impl Stencil {
    /// A seeded problem under the planner's plan.
    pub fn seeded(n: usize, steps: usize, seed: u64) -> Self {
        Self {
            n,
            steps,
            field: Field::Seeded(seed),
            forced: None,
            kernel: SevenPoint::heat(STENCIL_ALPHA),
        }
    }

    /// The problem a served stencil job of edge `n` solves, with the
    /// job's own blocking (tile `tile`, depth `dim_t`).
    pub fn served(n: usize, steps: usize, tile: usize, dim_t: usize) -> Self {
        Self {
            n,
            steps,
            field: Field::JobGrid,
            // Only the blocking fields reach the ladder.
            forced: Some(Plan35D {
                radius: 1,
                dim_t,
                dim_xy: tile,
                kappa: 0.0,
                buffer_bytes: 0,
                effective_gamma: 0.0,
            }),
            kernel: SevenPoint::heat(STENCIL_ALPHA),
        }
    }

    fn blocking(&self, plan: Plan35D) -> Blocking35 {
        // The same clamp the ladder applies before its 3.5-D rungs.
        let edge = plan.dim_xy.clamp(1, self.n);
        Blocking35::new(edge, edge, plan.dim_t.max(1))
    }
}

impl Problem for Stencil {
    type State = DoubleGrid<f32>;
    type Plan = Plan35D;

    fn build(&self) -> DoubleGrid<f32> {
        let grid = match self.field {
            Field::JobGrid => job_grid(self.n),
            Field::Seeded(seed) => {
                let mut s = seed;
                let mut draw = |lo: usize, span: u64| lo + (splitmix64(&mut s) % span) as usize;
                let (a, b, c) = (draw(1, 61), draw(1, 61), draw(1, 61));
                let m = draw(89, 64);
                let scale = 100.0 / m as f32;
                Grid3::from_fn(Dim3::cube(self.n), |x, y, z| {
                    ((x * a + y * b + z * c) % m) as f32 * scale
                })
            }
        };
        DoubleGrid::from_initial(grid)
    }

    fn plan(&self) -> Plan35D {
        self.forced
            .unwrap_or_else(|| plan_for(&seven_point_traffic()))
    }

    fn updates(&self) -> u64 {
        (self.n.saturating_sub(2) as u64).pow(3) * self.steps as u64
    }

    fn reference(&self, st: &mut DoubleGrid<f32>) {
        threefive::core::exec::reference_sweep(&self.kernel, st, self.steps);
    }

    fn digest(st: &DoubleGrid<f32>) -> u64 {
        digest(&[st.src().as_slice()])
    }

    fn corrupt(st: &mut DoubleGrid<f32>) {
        // The result lives in `src`; route the flip through a swap so only
        // the public mutable accessor is needed.
        st.swap();
        let cell = &mut st.dst_mut().as_mut_slice()[0];
        *cell = f32::from_bits(cell.to_bits() ^ 1);
        st.swap();
    }

    fn solve(
        &self,
        st: &mut DoubleGrid<f32>,
        plan: Plan35D,
        team: &ThreadTeam,
        obs: &Observer<'_>,
    ) -> Result<usize, String> {
        let opts = RunOptions {
            threads: team.threads(),
            log: false,
            ..RunOptions::default()
        };
        run_plan_on_team(
            &self.kernel,
            st,
            self.steps,
            Ok(plan),
            &opts,
            Some(team),
            obs,
        )
        .map(|r| r.downgrades.len())
        .map_err(|e| e.to_string())
    }

    fn engine(
        &self,
        st: &mut DoubleGrid<f32>,
        plan: Plan35D,
        team: &ThreadTeam,
        obs: &Observer<'_>,
    ) -> Result<(f64, f64), String> {
        let b = self.blocking(plan);
        try_parallel35d_sweep(&self.kernel, st, self.steps, b, team, None, obs)
            .map(|s| (s.overestimation(), s.dram_bytes() as f64))
            .map_err(|e| e.to_string())
    }

    fn simd(&self, st: &mut DoubleGrid<f32>) -> (f64, f64) {
        let s = simd_sweep(&self.kernel, st, self.steps);
        let ops = s.stencil_updates * seven_point_traffic().ops_per_update as u64;
        (ops as f64, s.dram_bytes() as f64)
    }

    fn snapshot(&self, st: &DoubleGrid<f32>) {
        black_box(st.src().clone());
    }

    fn finite_scan(&self, st: &DoubleGrid<f32>) -> bool {
        check_finite(st.src()).is_ok()
    }
}

/// D3Q19 SP lid-driven cavity on an `n³` lattice with a seeded lid speed.
pub struct Lbm {
    n: usize,
    steps: usize,
    u_lid: f32,
}

/// Relaxation rate of every lattice problem (the service's cavity value).
const OMEGA: f32 = 1.2;

impl Lbm {
    /// A cavity whose lid speed is drawn from `seed` in [0.04, 0.10).
    pub fn seeded(n: usize, steps: usize, seed: u64) -> Self {
        let mut s = seed;
        let unit = (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
        Self {
            n,
            steps,
            u_lid: (0.04 + 0.06 * unit) as f32,
        }
    }

    /// Computed DRAM bytes of `sweeps` full passes over the lattice: each
    /// pass reads 20 values and writes 19 (with write-allocate) per site;
    /// halo re-reads of blocked passes are not counted.
    fn pass_bytes(&self, sweeps: usize) -> f64 {
        let sites = (self.n as f64).powi(3);
        sweeps as f64 * sites * lbm_traffic().blocked_bytes_per_update(Precision::Sp)
    }
}

impl Problem for Lbm {
    type State = Lattice<f32>;
    type Plan = LbmBlocking;

    fn build(&self) -> Lattice<f32> {
        scenarios::lid_driven_cavity(Dim3::cube(self.n), OMEGA, self.u_lid)
    }

    fn plan(&self) -> LbmBlocking {
        let p = plan_for(&lbm_traffic());
        let edge = p.dim_xy.clamp(1, self.n);
        LbmBlocking::new(edge, edge, p.dim_t)
    }

    fn updates(&self) -> u64 {
        (self.n as u64).pow(3) * self.steps as u64
    }

    fn reference(&self, st: &mut Lattice<f32>) {
        lbm_naive_sweep(st, self.steps, LbmMode::Scalar, None);
    }

    fn digest(st: &Lattice<f32>) -> u64 {
        let comps: Vec<&[f32]> = (0..Q).map(|q| st.src().comp(q)).collect();
        digest(&comps)
    }

    fn corrupt(st: &mut Lattice<f32>) {
        let mut values: Vec<Vec<f32>> = (0..Q).map(|q| st.src().comp(q).to_vec()).collect();
        values[0][0] = f32::from_bits(values[0][0].to_bits() ^ 1);
        for (q, comp) in values.iter().enumerate() {
            st.dst_mut().comp_mut(q).copy_from_slice(comp);
        }
        st.swap();
    }

    fn solve(
        &self,
        st: &mut Lattice<f32>,
        plan: LbmBlocking,
        team: &ThreadTeam,
        obs: &Observer<'_>,
    ) -> Result<usize, String> {
        let opts = RunOptions {
            threads: team.threads(),
            log: false,
            ..RunOptions::default()
        };
        run_lbm_plan_on_team(st, self.steps, plan, &opts, Some(team), obs)
            .map(|r| r.downgrades.len())
            .map_err(|e| e.to_string())
    }

    fn engine(
        &self,
        st: &mut Lattice<f32>,
        plan: LbmBlocking,
        team: &ThreadTeam,
        obs: &Observer<'_>,
    ) -> Result<(f64, f64), String> {
        try_lbm35d_sweep(st, self.steps, plan, Some(team), None, obs)
            .map(|_| {
                let loaded_x = plan.dim_x + 2 * plan.dim_t;
                let loaded_y = plan.dim_y + 2 * plan.dim_t;
                (
                    kappa_35d(1, plan.dim_t, loaded_x, loaded_y),
                    self.pass_bytes(self.steps.div_ceil(plan.dim_t)),
                )
            })
            .map_err(|e| e.to_string())
    }

    fn simd(&self, st: &mut Lattice<f32>) -> (f64, f64) {
        let updates = lbm_naive_sweep(st, self.steps, LbmMode::Simd, None);
        let ops = updates * lbm_traffic().ops_per_update as u64;
        (ops as f64, self.pass_bytes(self.steps))
    }

    fn snapshot(&self, st: &Lattice<f32>) {
        // The ladder's own snapshot of the source distributions.
        let copy: Vec<Vec<f32>> = (0..Q).map(|q| st.src().comp(q).to_vec()).collect();
        black_box(copy);
    }

    fn finite_scan(&self, st: &Lattice<f32>) -> bool {
        // The lattice ladder's NaN/∞ guard is private to the facade; this
        // is the same scan over every source component.
        (0..Q).all(|q| st.src().comp(q).iter().all(|v| v.is_finite()))
    }
}

/// What one pass of the layer probes measured.
#[derive(Clone, Copy, Default)]
pub struct Layers {
    pub simd_sweep_s: f64,
    pub simd_ops: f64,
    pub simd_bytes: f64,
    pub engine_sweep_s: f64,
    pub engine_sweep_1t_s: f64,
    pub engine_compute_s: f64,
    pub engine_kappa: f64,
    pub engine_bytes: f64,
    pub barrier_wait_s: f64,
    pub barrier_share: f64,
    pub barrier_episodes: f64,
    pub run_plan_s: f64,
    pub run_plan_traced_s: f64,
    pub snapshot_s: f64,
    pub finite_scan_s: f64,
    pub downgrades: f64,
}

impl Layers {
    fn fields(&mut self) -> [&mut f64; 16] {
        [
            &mut self.simd_sweep_s,
            &mut self.simd_ops,
            &mut self.simd_bytes,
            &mut self.engine_sweep_s,
            &mut self.engine_sweep_1t_s,
            &mut self.engine_compute_s,
            &mut self.engine_kappa,
            &mut self.engine_bytes,
            &mut self.barrier_wait_s,
            &mut self.barrier_share,
            &mut self.barrier_episodes,
            &mut self.run_plan_s,
            &mut self.run_plan_traced_s,
            &mut self.snapshot_s,
            &mut self.finite_scan_s,
            &mut self.downgrades,
        ]
    }

    /// Field-wise mean of `passes`.
    pub fn mean(passes: &[Layers]) -> Layers {
        let mut out = Layers::default();
        for p in passes {
            let mut p = *p;
            for (o, v) in out.fields().into_iter().zip(p.fields()) {
                *o += *v / passes.len() as f64;
            }
        }
        out
    }

    /// Ladder time not spent in the bare engine.
    pub fn run_overhead_s(&self) -> f64 {
        self.run_plan_s - self.engine_sweep_s
    }

    /// Share of the ladder call not covered by the self-times of the
    /// layers under it: engine sweep, one snapshot, two finite scans.
    pub fn residual_frac(&self) -> f64 {
        1.0 - (self.engine_sweep_s + self.snapshot_s + 2.0 * self.finite_scan_s) / self.run_plan_s
    }

    /// Cost of the enabled observer and spans on the ladder call.
    pub fn trace_overhead_frac(&self) -> f64 {
        self.run_plan_traced_s / self.run_plan_s - 1.0
    }
}

/// Times every layer of `p` once, each on a fresh input, checking every
/// result against the reference digest `want`. `team` is the workload's
/// team; the 1-thread engine call gets a one-member team of its own.
/// Returns the measurements and the last (reference-identical) result.
pub fn probe_layers<P: Problem>(
    p: &P,
    team: &ThreadTeam,
    want: u64,
    spans: &mut Spans,
    parent: Option<usize>,
    tally: &mut Tally,
) -> (Layers, P::State) {
    let mut l = Layers::default();
    let plan = p.plan();
    let disabled = Observer::disabled();

    // Each input is dropped before the next is built, so the probes never
    // hold two problems at once.
    let mut st = spans.time("setup", parent, || p.build()).0;
    let (res, t) = spans.time("run.run_plan", parent, || {
        p.solve(&mut st, plan, team, &disabled)
    });
    l.run_plan_s = t;
    l.downgrades += res.clone().unwrap_or(0) as f64;
    tally.check("run_plan", res.map(|_| P::digest(&st)), want);

    drop(st);
    let mut st = spans.time("setup", parent, || p.build()).0;
    let instr = Instrument::enabled(team.threads());
    let traced = Observer::with_instrument(&instr);
    let (res, t) = spans.time("run.run_plan.traced", parent, || {
        p.solve(&mut st, plan, team, &traced)
    });
    l.run_plan_traced_s = t;
    l.downgrades += res.clone().unwrap_or(0) as f64;
    tally.check("run_plan (observed)", res.map(|_| P::digest(&st)), want);
    let timing = instr.timing();
    let threads = team.threads() as f64;
    l.engine_compute_s = timing.total_compute_ns() as f64 * 1e-9 / threads;
    l.barrier_wait_s = timing.total_barrier_ns() as f64 * 1e-9 / threads;
    l.barrier_share = timing.barrier_share();
    l.barrier_episodes = timing.wait_hist.total() as f64;

    drop(st);
    let mut st = spans.time("setup", parent, || p.build()).0;
    let (res, t) = spans.time("engine35.sweep", parent, || {
        p.engine(&mut st, plan, team, &disabled)
    });
    l.engine_sweep_s = t;
    if let Ok((kappa, bytes)) = res {
        l.engine_kappa = kappa;
        l.engine_bytes = bytes;
    }
    tally.check("engine35 sweep", res.map(|_| P::digest(&st)), want);

    drop(st);
    let mut st = spans.time("setup", parent, || p.build()).0;
    let solo = ThreadTeam::new(1);
    let (res, t) = spans.time("engine35.sweep_1t", parent, || {
        p.engine(&mut st, plan, &solo, &disabled)
    });
    l.engine_sweep_1t_s = t;
    tally.check(
        "engine35 sweep (1 thread)",
        res.map(|_| P::digest(&st)),
        want,
    );

    drop(st);
    let mut st = spans.time("setup", parent, || p.build()).0;
    let ((ops, bytes), t) = spans.time("simd.sweep", parent, || p.simd(&mut st));
    l.simd_sweep_s = t;
    l.simd_ops = ops;
    l.simd_bytes = bytes;
    tally.check("simd sweep", Ok(P::digest(&st)), want);

    l.snapshot_s = spans.time("run.snapshot", parent, || p.snapshot(&st)).1;
    let (finite, t) = spans.time("run.finite_scan", parent, || p.finite_scan(&st));
    l.finite_scan_s = t;
    tally.record((!finite).then(|| "finite scan flagged a reference-identical result".into()));
    (l, st)
}
