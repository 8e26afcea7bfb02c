//! Set-up and training: synthesize the Netflix replica, fit it one epoch
//! at a time for the workload's fixed epoch count, and — in a traced run —
//! replay the last epoch row by row through the public kernels with a span
//! around each.

use crate::spans::{Clock, Spans};
use crate::stats::median;
use crate::workloads::{Workload, SETUP_REPS};
use crate::{Report, Source};
use cumf_als::kernels::bias::bias_row;
use cumf_als::kernels::hermitian::{hermitian_row, HermitianShape};
use cumf_als::kernels::solve::solve_row;
use cumf_als::{price_side_detailed, test_rmse, AlsConfig, AlsTrainer, Side, SolverKind};
use cumf_datasets::{DatasetProfile, MfDataset, SizeClass};
use cumf_gpu_sim::GpuSpec;
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::sym::SymPacked;
use cumf_sparse::csr::CsrMatrix;
use std::hint::black_box;
use std::time::Instant;

const HOST: Source = Source::Clock(Clock::Host);
const SIM: Source = Source::Clock(Clock::Sim);

/// The synthesized data set and the median host seconds of its set-up
/// (synthesis, which builds both CSR orientations, plus trainer init).
pub struct Data {
    pub data: MfDataset,
    pub setup_s: f64,
}

/// The paper's configuration for the profile at the workload's `f`; the
/// benchmark drives epochs itself, so the iteration count is unused.
fn config(w: &Workload, profile: &DatasetProfile) -> AlsConfig {
    AlsConfig {
        f: w.f,
        ..AlsConfig::for_profile(profile)
    }
}

fn spec() -> GpuSpec {
    GpuSpec::maxwell_titan_x()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn setup(w: &Workload, seed: u64, report: &mut Report) -> Data {
    let (mut setup, mut synth) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let data = MfDataset::synthesize(DatasetProfile::netflix(), SizeClass::Small, seed);
        synth.push(secs(t0));
        let trainer = AlsTrainer::new(&data, config(w, &data.profile), spec(), 1);
        black_box(&trainer.theta);
        drop(trainer);
        setup.push(secs(t0));
        last = Some(data);
    }
    let data = last.expect("at least one set-up repetition");
    if report.traced {
        let mut csr = Vec::new();
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let r = CsrMatrix::from_coo(&data.train_coo);
            black_box(r.transpose());
            csr.push(secs(t0));
        }
        report.layer("datasets.synth_s", median(&synth), "s", HOST);
        report.layer("sparse.csr_build_s", median(&csr), "s", HOST);
        report.note(format!(
            "datasets.synth_s includes the CSR build synthesis performs; \
             sparse.csr_build_s re-times CsrMatrix::from_coo + transpose on the same {} ratings",
            data.train_nnz()
        ));
    }
    Data {
        data,
        setup_s: median(&setup),
    }
}

/// Repeated fits, one epoch at a time, so the caller can publish and serve
/// each epoch's model before training the next. Every fit starts from the
/// same initial factors and runs the workload's fixed epoch count.
pub struct Training<'a> {
    w: &'a Workload,
    data: &'a MfDataset,
    cfg: AlsConfig,
    trainer: AlsTrainer<'a>,
    /// Epochs run in the current fit.
    fit_epoch: usize,
    /// Host seconds of the current fit so far (epochs plus RMSE evals).
    fit_elapsed: f64,
    fit_to_target: Option<f64>,
    /// Per completed fit: host seconds until test RMSE reached the target,
    /// `+inf` for a fit that never did.
    to_target: Vec<f64>,
    epoch_s: Vec<f64>,
    eval_s: Vec<f64>,
    /// Test RMSE at the end of the last completed fit.
    rmse: f64,
    sim_t: f64,
}

impl<'a> Training<'a> {
    pub fn new(w: &'a Workload, data: &'a MfDataset) -> Training<'a> {
        let cfg = config(w, &data.profile);
        Training {
            w,
            data,
            trainer: AlsTrainer::new(data, cfg.clone(), spec(), 1),
            cfg,
            fit_epoch: 0,
            fit_elapsed: 0.0,
            fit_to_target: None,
            to_target: Vec::new(),
            epoch_s: Vec::new(),
            eval_s: Vec::new(),
            rmse: f64::NAN,
            sim_t: 0.0,
        }
    }

    pub fn x(&self) -> &DenseMatrix {
        &self.trainer.x
    }

    pub fn theta(&self) -> &DenseMatrix {
        &self.trainer.theta
    }

    /// Completed fits.
    pub fn fits(&self) -> usize {
        self.to_target.len()
    }

    /// Whether the next epoch starts a fit.
    pub fn at_fit_start(&self) -> bool {
        self.fit_epoch == 0
    }

    /// Run and time one epoch and its RMSE evaluation, starting a new fit
    /// from the initial factors when the last one is complete. In a traced
    /// run the first fit's last epoch is also replayed layer by layer.
    pub fn epoch(&mut self, spans: Option<&mut Spans>, report: &mut Report) {
        if self.fit_epoch == 0 && !self.epoch_s.is_empty() {
            self.trainer = AlsTrainer::new(self.data, self.cfg.clone(), spec(), 1);
        }
        self.fit_epoch += 1;
        let replay_from =
            (report.traced && self.fits() == 0 && self.fit_epoch == self.w.fit_epochs)
                .then(|| (self.trainer.x.clone(), self.trainer.theta.clone()));
        let h0 = spans.as_ref().map(|s| s.now());
        let t0 = Instant::now();
        let (phases, mean_cg) = self.trainer.run_epoch();
        let dt = secs(t0);
        let t1 = Instant::now();
        let rmse = test_rmse(&self.trainer.x, &self.trainer.theta, &self.data.test);
        let de = secs(t1);
        self.epoch_s.push(dt);
        self.eval_s.push(de);
        self.fit_elapsed += dt + de;
        if rmse <= self.data.profile.rmse_target && self.fit_to_target.is_none() {
            self.fit_to_target = Some(self.fit_elapsed);
        }
        report.attempted += 1;
        eprintln!(
            "fit {} epoch {}: {dt:.3} s host, {:.4} s sim, test RMSE {rmse:.4}",
            self.fits() + 1,
            self.fit_epoch,
            phases.total()
        );
        if self.fit_epoch == self.w.fit_epochs {
            self.to_target
                .push(self.fit_to_target.take().unwrap_or(f64::INFINITY));
            self.rmse = rmse;
            self.fit_epoch = 0;
            self.fit_elapsed = 0.0;
        }
        let (Some(s), Some(h0)) = (spans, h0) else {
            return;
        };
        s.push("core.als.run_epoch", h0, h0 + dt, None, None, Clock::Host);
        s.push(
            "core.metrics.test_rmse",
            h0 + dt,
            h0 + dt + de,
            None,
            None,
            Clock::Host,
        );
        let epoch_span = s.push(
            "gpu_sim.epoch",
            self.sim_t,
            self.sim_t + phases.total(),
            None,
            None,
            Clock::Sim,
        );
        let mut t = self.sim_t;
        for (name, d) in [
            ("gpu_sim.get_hermitian.load", phases.load),
            ("gpu_sim.get_hermitian.compute", phases.compute),
            ("gpu_sim.get_hermitian.write", phases.write),
            ("gpu_sim.get_bias", phases.bias),
            ("gpu_sim.solve", phases.solve),
            ("gpu_sim.comm", phases.comm),
        ] {
            s.push(name, t, t + d, Some(epoch_span), None, Clock::Sim);
            t += d;
        }
        self.sim_t += phases.total();
        if let Some((x0, theta0)) = replay_from {
            layers(
                self.data,
                &self.cfg,
                x0,
                theta0,
                &self.trainer,
                dt,
                phases.total(),
                mean_cg,
                s,
                report,
            );
        }
    }

    /// Report the training metrics and check the final RMSE.
    pub fn finish(&self, report: &mut Report) {
        let target = self.data.profile.rmse_target;
        let rmse = self.rmse;
        report.layer("core.metrics.rmse_eval_s", median(&self.eval_s), "s", HOST);
        report.e2e("train_epoch_s", median(&self.epoch_s), "s", HOST);
        report.e2e("train_to_target_s", median(&self.to_target), "s", HOST);
        report.e2e("final_rmse", rmse, "RMSE", Source::Count);
        report.note(format!(
            "training: {} fits of {} epochs at f={}, {} users x {} items, {} ratings; \
             train_epoch_s is the median of {} epochs, train_to_target_s of {} fits",
            self.fits(),
            self.w.fit_epochs,
            self.cfg.f,
            self.data.m(),
            self.data.n(),
            self.data.train_nnz(),
            self.epoch_s.len(),
            self.to_target.len()
        ));
        report.check(rmse <= target, || {
            format!("final test RMSE {rmse:.4} above the profile target {target}")
        });
    }
}

/// Host time per layer over one replayed epoch.
#[derive(Default)]
struct LayerTimes {
    hermitian: f64,
    bias: f64,
    solve: f64,
    lu: f64,
    rows: u64,
    capped: u64,
    cg_iters: u64,
    flop: f64,
}

/// Replay one epoch from `(x, theta)` through `hermitian_row` → `bias_row`
/// → `solve_row`, with `BatchLu` timed on the same systems beside it, then
/// check the factors against the trainer's and report per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn layers(
    data: &MfDataset,
    cfg: &AlsConfig,
    mut x: DenseMatrix,
    mut theta: DenseMatrix,
    trainer: &AlsTrainer,
    epoch_s: f64,
    epoch_sim_s: f64,
    mean_cg: f64,
    spans: &mut Spans,
    report: &mut Report,
) {
    let f = cfg.f;
    let shape = HermitianShape {
        f,
        bin: cfg.bin,
        tile: cfg.tile,
    };
    let mut lt = LayerTimes::default();
    let replay_start = Instant::now();
    for side in [Side::X, Side::Theta] {
        let (r, name) = match side {
            Side::X => (&data.r, "core.replay.update_x"),
            Side::Theta => (&data.rt, "core.replay.update_theta"),
        };
        let sweep = spans.open(name, None);
        let (features, old) = match side {
            Side::X => (&theta, &x),
            Side::Theta => (&x, &theta),
        };
        let mut fresh = DenseMatrix::zeros(r.rows(), f);
        let mut a = SymPacked::zeros(f);
        let mut staging = Vec::with_capacity(shape.bin * f);
        let mut b = vec![0.0f32; f];
        let mut lu_x = vec![0.0f32; f];
        for u in 0..r.rows() {
            let cols = r.row_cols(u);
            if cols.is_empty() {
                continue;
            }
            let t0 = spans.now();
            hermitian_row(cols, features, cfg.lambda, &shape, &mut staging, &mut a);
            let t1 = spans.now();
            bias_row(cols, r.row_values(u), features, &mut b);
            let t2 = spans.now();
            let out = fresh.row_mut(u);
            out.copy_from_slice(old.row(u));
            let stats = solve_row(&cfg.solver, &a, out, &b);
            let t3 = spans.now();
            lu_x.copy_from_slice(old.row(u));
            solve_row(&SolverKind::BatchLu, &a, &mut lu_x, &b);
            black_box(&lu_x);
            let t4 = spans.now();
            spans.push(
                "core.kernels.hermitian_row",
                t0,
                t1,
                Some(sweep),
                None,
                Clock::Host,
            );
            spans.push(
                "core.kernels.bias_row",
                t1,
                t2,
                Some(sweep),
                None,
                Clock::Host,
            );
            spans.push(
                "core.kernels.solve_row",
                t2,
                t3,
                Some(sweep),
                None,
                Clock::Host,
            );
            spans.push(
                "numeric.lu.batch_lu_row",
                t3,
                t4,
                Some(sweep),
                None,
                Clock::Host,
            );
            lt.hermitian += t1 - t0;
            lt.bias += t2 - t1;
            lt.solve += t3 - t2;
            lt.lu += t4 - t3;
            lt.rows += 1;
            lt.capped += u64::from(!stats.converged);
            lt.cg_iters += stats.iterations as u64;
            lt.flop += (cols.len() * f * (f + 1)) as f64;
        }
        spans.close(sweep);
        match side {
            Side::X => x = fresh,
            Side::Theta => theta = fresh,
        }
    }
    let replay_s = secs(replay_start) - lt.lu;

    let same = |a: &DenseMatrix, b: &DenseMatrix| {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits())
    };
    report.check(same(&x, &trainer.x) && same(&theta, &trainer.theta), || {
        "traced replay of the last epoch is not bit-identical to AlsTrainer::run_epoch".into()
    });

    // The cost model, timed on the host, and its simulated ratios for the
    // same shapes under CG and under batched LU.
    let t0 = Instant::now();
    let cg = [Side::X, Side::Theta]
        .map(|s| price_side_detailed(&data.profile, cfg, s, &spec(), 1, mean_cg).phases);
    let price_s = secs(t0);
    let lu_cfg = AlsConfig {
        solver: SolverKind::BatchLu,
        ..cfg.clone()
    };
    let lu = [Side::X, Side::Theta]
        .map(|s| price_side_detailed(&data.profile, &lu_cfg, s, &spec(), 1, mean_cg).phases);
    let herm_sim: f64 = cg.iter().map(|p| p.load + p.compute + p.write).sum();
    let cg_sim: f64 = cg.iter().map(|p| p.solve).sum();
    let lu_sim: f64 = lu.iter().map(|p| p.solve).sum();

    report.layer("core.hermitian.host_s", lt.hermitian, "s", HOST);
    report.layer(
        "core.hermitian.gflop",
        lt.flop / 1e9,
        "GFLOP",
        Source::Computed,
    );
    report.layer("core.bias.host_s", lt.bias, "s", HOST);
    report.layer("core.solve.host_s", lt.solve, "s", HOST);
    let rows = lt.rows.max(1) as f64;
    report.layer(
        "core.solve.cg_iters_mean",
        lt.cg_iters as f64 / rows,
        "iters",
        Source::Count,
    );
    report.layer(
        "core.solve.capped_ratio",
        lt.capped as f64 / rows,
        "ratio",
        Source::Count,
    );
    report.layer(
        "core.solve.lu_over_hermitian",
        lt.lu / lt.hermitian,
        "ratio",
        HOST,
    );
    report.layer("core.solve.cg_over_lu", lt.solve / lt.lu, "ratio", HOST);
    report.layer("gpu_sim.lu_over_hermitian", lu_sim / herm_sim, "ratio", SIM);
    report.layer("gpu_sim.cg_over_lu", cg_sim / lu_sim, "ratio", SIM);
    report.layer("gpu_sim.price_host_s", price_s, "s", HOST);
    report.layer("gpu_sim.epoch_sim_s", epoch_sim_s, "s", SIM);
    report.layer(
        "bench.trace.train_overhead_ratio",
        (replay_s - epoch_s) / epoch_s,
        "ratio",
        HOST,
    );
    report.note(format!(
        "replayed epoch: hermitian {:.3} + bias {:.3} + solve {:.3} = {:.3} s of a {:.3} s run_epoch (host); \
         LU/hermitian host {:.2} vs sim {:.2} (paper ~2); CG/LU host {:.2} vs sim {:.2} (paper ~0.25); \
         {:.2} GFLOP computed as sum of nnz*f(f+1)",
        lt.hermitian,
        lt.bias,
        lt.solve,
        lt.hermitian + lt.bias + lt.solve,
        epoch_s,
        lt.lu / lt.hermitian,
        lu_sim / herm_sim,
        lt.solve / lt.lu,
        cg_sim / lu_sim,
        lt.flop / 1e9,
    ));
}
