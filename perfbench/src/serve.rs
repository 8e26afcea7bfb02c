//! Serving: publish the fitted model into a `ServeEngine`, drive it
//! open-loop through the admission queue, check the answers, and — in a
//! traced run — time each serving layer from outside.

use crate::spans::{Clock, Spans};
use crate::stats::{mean, median, quantile, Gauss};
use crate::train::{Data, Training};
use crate::workloads::{
    ladder, Catalog, Users, Workload, CHECKS_PER_KIND, K, LATE_LIMIT_SHARE, MIN_FITS, RECALL_USERS,
    SETUP_REPS, SLATE, SLO_MS,
};
use crate::{Report, Source};
use cumf_als::fold_in_batch;
use cumf_als::fold_in_row;
use cumf_datasets::{MfDataset, RequestSampler};
use cumf_numeric::dense::DenseMatrix;
use cumf_numeric::kernel;
use cumf_serve::shard::scatter_top_k;
use cumf_serve::{
    admission_queue, naive_top_k, overlap_at_k, score_one, AdmissionConfig, AdmissionReport,
    CentroidIndex, Completion, ModelSnapshot, Request, Retrieval, ScoreConfig, ScoredItem,
    ServeConfig, ServeEngine, ShardedSnapshot, SubmitError,
};
use cumf_telemetry::NOOP;
use std::hint::black_box;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};

const HOST: Source = Source::Clock(Clock::Host);
/// Requests per traced phase whose spans are kept; every request still
/// counts in the per-layer percentiles.
const SPANNED_REQUESTS: usize = 1000;

pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The served model: user factors, item factors, popularity priors.
struct Model {
    x: DenseMatrix,
    theta: DenseMatrix,
    priors: Vec<f32>,
}

impl Model {
    fn snapshot(&self, epoch: u64) -> ModelSnapshot {
        ModelSnapshot::new(epoch, self.theta.clone(), self.priors.clone())
    }
}

/// Standard-normal draws that the expanded catalog adds to the fitted rows,
/// made once per set-up so every epoch's catalog shares them.
struct Jitter {
    theta: Vec<f32>,
    x: Vec<f32>,
}

fn jitter(w: &Workload, seed: u64) -> Option<Jitter> {
    let Catalog::Expanded { items, users, .. } = w.catalog else {
        return None;
    };
    let mut g = Gauss::new(seed ^ 0xCA7A_1065);
    Some(Jitter {
        theta: (0..items * w.f).map(|_| g.next()).collect(),
        x: (0..users * w.f).map(|_| g.next()).collect(),
    })
}

/// Row `i` of the result is `base` row `i mod base.rows()` plus `noise`
/// scaled to `share` × the RMS entry of `base`.
fn expand(base: &DenseMatrix, noise: &[f32], share: f32) -> DenseMatrix {
    let s = base.as_slice();
    let rms = (s.iter().map(|v| v * v).sum::<f32>() / s.len().max(1) as f32).sqrt();
    let sigma = share * rms;
    let f = base.cols();
    let rows = noise.len() / f;
    let out = noise
        .chunks_exact(f)
        .enumerate()
        .flat_map(|(i, z)| {
            base.row(i % base.rows())
                .iter()
                .zip(z)
                .map(move |(&v, &z)| v + sigma * z)
        })
        .collect();
    DenseMatrix::from_vec(rows, f, out)
}

/// The catalog served for the trainer's current factors.
fn model(
    w: &Workload,
    data: &MfDataset,
    x: &DenseMatrix,
    theta: &DenseMatrix,
    jitter: Option<&Jitter>,
) -> Model {
    let priors: Vec<f32> = (0..data.n())
        .map(|v| 0.01 * (1.0 + data.rt.row_nnz(v) as f32).ln())
        .collect();
    match (w.catalog, jitter) {
        (Catalog::Expanded { jitter: share, .. }, Some(j)) => Model {
            theta: expand(theta, &j.theta, share),
            x: expand(x, &j.x, share),
            priors: (0..j.theta.len() / w.f)
                .map(|v| priors[v % priors.len()])
                .collect(),
        },
        _ => Model {
            x: x.clone(),
            theta: theta.clone(),
            priors,
        },
    }
}

fn engine_config(w: &Workload) -> ServeConfig {
    ServeConfig::default()
        .with_k(K)
        .with_shards(w.shards.unwrap_or_else(cores))
        .with_score(ScoreConfig {
            retrieval: w.retrieval,
            ..ScoreConfig::default()
        })
        .with_ann(w.ann)
}

fn build_engine(w: &Workload, m: &Model) -> ServeEngine {
    ServeEngine::builder()
        .config(engine_config(w))
        .model("default", m.x.clone(), m.snapshot(0))
        .build()
        .expect("engine bootstrap from fitted factors")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    TopK,
    Cold,
    SimilarItems,
    SimilarUsers,
    Rank,
    Explain,
}

/// One scheduled request and what the checks need to know about it.
struct Planned {
    at: f64,
    kind: Kind,
    user: u32,
    item: u32,
    req: Request,
}

/// Requests at `qps` for `secs`: Poisson arrivals, users from the
/// workload's population, kinds drawn from its mix; ids from `first_id`.
fn plan(
    w: &Workload,
    data: &MfDataset,
    m: &Model,
    qps: f64,
    secs: f64,
    seed: u64,
    first_id: u64,
) -> Vec<Planned> {
    let (n_users, n_items) = (m.x.rows(), m.theta.rows());
    let mut sampler = match w.users {
        Users::Skewed => RequestSampler::from_dataset(data, seed),
        Users::Uniform => RequestSampler::uniform(n_users, seed),
    };
    let mix = w.mix;
    let mut g = Gauss::new(seed ^ 0x9E37_79B9);
    let count = (qps * secs).round().max(1.0) as usize;
    sampler
        .sample(count, qps)
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            let id = first_id + i as u64;
            let user = s.user;
            let item = g.below(n_items) as u32;
            let mut r = g.uniform();
            let mut kind = Kind::TopK;
            for (k, share) in [
                (Kind::SimilarItems, mix.similar_items),
                (Kind::SimilarUsers, mix.similar_users),
                (Kind::Rank, mix.rank),
                (Kind::Explain, mix.explain),
            ] {
                if r < share {
                    kind = k;
                    break;
                }
                r -= share;
            }
            if kind == Kind::TopK && g.uniform() < mix.cold_of_topk {
                kind = Kind::Cold;
            }
            let req = match kind {
                Kind::TopK => Request::known(id, user),
                Kind::Cold => {
                    let row = user as usize % data.m();
                    Request::cold(id, data.r.row_iter(row).collect())
                }
                Kind::SimilarItems => Request::similar_items(id, item),
                Kind::SimilarUsers => Request::similar_users(id, user),
                Kind::Rank => Request::rank_items(
                    id,
                    user,
                    (0..SLATE).map(|_| g.below(n_items) as u32).collect(),
                ),
                Kind::Explain => Request::explain(id, user, item),
            };
            Planned {
                at: s.arrival,
                kind,
                user,
                item,
                req,
            }
        })
        .collect()
}

/// What one open-loop phase measured.
struct Phase {
    plan: Vec<Planned>,
    /// Engine-clock instant the schedule is relative to.
    origin: f64,
    /// Per planned request: latency from its scheduled send time, ms;
    /// `+inf` for a refused or failed request.
    lat_ms: Vec<f64>,
    /// Per planned request: how late the generator sent it, ms.
    late_ms: Vec<f64>,
    completions: Vec<Option<Completion>>,
    refused: u64,
    errors: u64,
    admission: AdmissionReport,
    publish_s: Vec<f64>,
    cache_hits: u64,
    cache_lookups: u64,
}

impl Phase {
    fn sent(&self) -> u64 {
        self.plan.len() as u64
    }
}

/// Drive `plan` open-loop through a fresh admission queue: one generator
/// thread (this one) sends each request at its scheduled time and never
/// blocks; a full queue refuses. With `publish_every`, a publisher thread
/// publishes a new epoch of `m` on that period while reads continue.
fn run_phase(
    engine: &ServeEngine,
    plan: Vec<Planned>,
    publish_every: Option<(f64, &Model)>,
) -> Phase {
    let first_id = plan.first().map(|p| p.req.id).unwrap_or(0);
    let n = plan.len();
    let (queue, worker, done) = admission_queue(AdmissionConfig::default());
    let queue = queue.with_obs(engine.obs_arc());
    let cache0 = engine.cache_stats();
    let mut lat_ms = vec![f64::NAN; n];
    let mut late_ms = vec![0.0; n];
    let (mut refused, mut errors) = (0u64, 0u64);
    let origin = engine.now() + 0.002;
    let (admission, completions, publish_s) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| worker.run(engine, &NOOP));
        let (stop, stopped) = channel::<()>();
        let publisher = publish_every.map(|(period, m)| {
            scope.spawn(move || {
                let id = engine.registry().default_model();
                let mut times = Vec::new();
                while let Err(RecvTimeoutError::Timeout) =
                    stopped.recv_timeout(Duration::from_secs_f64(period))
                {
                    let epoch = engine.registry().epoch(&id).expect("default model is live") + 1;
                    let snapshot = m.snapshot(epoch);
                    let t0 = Instant::now();
                    engine
                        .registry()
                        .publish(&id, snapshot)
                        .expect("publish a new epoch");
                    times.push(t0.elapsed().as_secs_f64());
                }
                times
            })
        });
        for (i, p) in plan.iter().enumerate() {
            let due = origin + p.at;
            // Spin until the send time, yielding to any runnable thread: a
            // sleeping thread lets its virtual CPU go idle, an idle virtual
            // CPU on a shared host woke up to 18 ms late, and that lateness
            // would be charged to the server.
            while engine.now() < due {
                std::thread::yield_now();
            }
            late_ms[i] = (engine.now() - due).max(0.0) * 1e3;
            match queue.try_submit(p.req.clone(), due) {
                Ok(()) => {}
                Err(SubmitError::Full(_)) => {
                    refused += 1;
                    lat_ms[i] = f64::INFINITY;
                }
                Err(SubmitError::Closed(_)) => panic!("admission worker stopped"),
            }
        }
        drop(queue);
        let completions: Vec<Completion> = done.iter().collect();
        let admission = handle.join().expect("admission worker panicked");
        drop(stop);
        let publish_s = publisher
            .map(|h| h.join().expect("publisher panicked"))
            .unwrap_or_default();
        (admission, completions, publish_s)
    });
    let cache1 = engine.cache_stats();
    let mut slots: Vec<Option<Completion>> = (0..n).map(|_| None).collect();
    for c in completions {
        let i = (c.span.request_id - first_id) as usize;
        lat_ms[i] = if c.response.is_ok() {
            (c.finished_at - c.submitted_at) * 1e3
        } else {
            errors += 1;
            f64::INFINITY
        };
        slots[i] = Some(c);
    }
    Phase {
        plan,
        origin,
        lat_ms,
        late_ms,
        completions: slots,
        refused,
        errors,
        admission,
        publish_s,
        cache_hits: cache1.hits - cache0.hits,
        cache_lookups: (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses),
    }
}

/// Exact reference ranking of `query` over the published catalog.
fn exact_top_k(reference: &ModelSnapshot, query: &[f32]) -> Vec<ScoredItem> {
    naive_top_k(&score_one(reference, query, false), K)
}

fn same_ranking(a: &[ScoredItem], b: &[ScoredItem]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.item == q.item && p.score.to_bits() == q.score.to_bits())
}

/// Compare a sample of each checked request kind's served answers with a
/// reference the benchmark computes itself from the published factors.
fn check_answers(
    phase: &Phase,
    engine: &ServeEngine,
    m: &Model,
    reference: &ModelSnapshot,
    exact: bool,
    explain_dev: &mut Vec<f64>,
    report: &mut Report,
) {
    let cfg = engine.config();
    let mut per_kind = [0usize; 6];
    for (p, c) in phase.plan.iter().zip(&phase.completions) {
        let Some(Ok(rec)) = c.as_ref().map(|c| &c.response) else {
            continue;
        };
        let slot = &mut per_kind[p.kind as usize];
        if *slot >= CHECKS_PER_KIND {
            continue;
        }
        let query: Vec<f32> = match (&p.kind, &p.req.query) {
            (Kind::Cold, cumf_serve::Query::User(cumf_serve::UserRef::Cold(h))) => {
                fold_in_row(&m.theta, h, cfg.lambda, &cfg.solver)
            }
            (Kind::TopK | Kind::Rank | Kind::Explain, _) => m.x.row(p.user as usize).to_vec(),
            _ => continue,
        };
        *slot += 1;
        let scores = score_one(reference, &query, false);
        match p.kind {
            Kind::TopK | Kind::Cold if exact => {
                let expected = naive_top_k(&scores, K);
                report.check(same_ranking(&rec.items, &expected), || {
                    format!(
                        "request {} ({:?}): served top-k differs from naive_top_k",
                        p.req.id, p.kind
                    )
                });
            }
            Kind::TopK | Kind::Cold => {
                // Approximate retrieval rescores its shortlist exactly, so
                // each served score must be the exact score of that item.
                let ok = rec.items.len() == K
                    && rec.items.iter().all(|s| {
                        (s.item as usize) < scores.len()
                            && s.score.to_bits() == scores[s.item as usize].to_bits()
                    });
                report.check(ok, || {
                    format!(
                        "request {}: served approximate scores are not the exact scores",
                        p.req.id
                    )
                });
            }
            Kind::Rank => {
                let cumf_serve::Query::RankItems { slate, .. } = &p.req.query else {
                    unreachable!("rank request carries a slate")
                };
                let mut expected: Vec<ScoredItem> = slate
                    .iter()
                    .map(|&v| ScoredItem {
                        item: v,
                        score: scores[v as usize],
                    })
                    .collect();
                expected.sort_by(|a, b| {
                    if a.ranks_before(b) {
                        std::cmp::Ordering::Less
                    } else if b.ranks_before(a) {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Equal
                    }
                });
                expected.truncate(K);
                report.check(same_ranking(&rec.items, &expected), || {
                    format!("request {}: rank-items differs from the full ranking restricted to the slate", p.req.id)
                });
            }
            Kind::Explain => {
                // Each term is the exact product x_u[j]·θ_v[j] and the prior
                // is the published one, bit for bit. Only their sum may
                // differ from the served score: the terms sum in factor
                // order while the score reduces in lane order, so the two
                // agree to 1e-6, widened to the worst-case error of
                // reassociating an f-term sum where the magnitude needs it.
                let item = p.item as usize;
                let served = scores[item];
                let theta_v = m.theta.row(item);
                let ok = rec.explanation.as_ref().is_some_and(|e| {
                    let exact_terms = e.terms.len() == query.len()
                        && e.terms
                            .iter()
                            .zip(query.iter().zip(theta_v))
                            .all(|(t, (a, b))| t.to_bits() == (a * b).to_bits())
                        && e.prior.to_bits() == m.priors[item].to_bits();
                    let dev = (e.score() - served).abs();
                    let magnitude: f32 =
                        e.terms.iter().map(|t| t.abs()).sum::<f32>() + e.prior.abs();
                    let bound = (e.terms.len() as f32 * f32::EPSILON * magnitude).max(1e-6);
                    explain_dev.push(dev as f64);
                    exact_terms && dev <= bound
                }) && rec.items.first().map(|s| s.score.to_bits())
                    == Some(served.to_bits());
                report.check(ok, || {
                    format!("request {}: explain terms are not x_u[j]*theta_v[j] and the prior, or do not sum to the served score within FP32 roundoff", p.req.id)
                });
            }
            _ => {}
        }
    }
}

/// Report how far explain terms summed from the served scores.
fn report_explain(explain_dev: &[f64], report: &mut Report) {
    let max = explain_dev.iter().cloned().fold(0.0, f64::max);
    if !explain_dev.is_empty() {
        let over = explain_dev.iter().filter(|&&d| d > 1e-6).count();
        report.note(format!(
            "explain: {over} of {} checked answers sum more than 1e-6 from the served score (max {max:.3e}), within FP32 reassociation roundoff",
            explain_dev.len()
        ));
    }
    report.layer("serve.explain.max_abs_dev", max, "score", Source::Count);
}

/// Mean overlap@10 of served top-k against the exact ranking over a fixed
/// user sample, one request at a time.
fn recall(
    engine: &ServeEngine,
    m: &Model,
    reference: &ModelSnapshot,
    seed: u64,
    report: &mut Report,
) -> f64 {
    let n = m.x.rows();
    let users = RECALL_USERS.min(n);
    let offset = (seed as usize) % n;
    let stride = (n / users).max(1);
    let mut sum = 0.0;
    for j in 0..users {
        let u = ((offset + j * stride) % n) as u32;
        let served = engine
            .recommend_batch(&[Request::known(u64::MAX - j as u64, u)], &NOOP)
            .pop()
            .expect("one answer per request");
        report.attempted += 1;
        match served {
            Ok(rec) => {
                sum += overlap_at_k(&exact_top_k(reference, m.x.row(u as usize)), &rec.items, K)
            }
            Err(e) => {
                report.failed += 1;
                report.note(format!("recall request for user {u} failed: {e}"));
            }
        }
    }
    sum / users as f64
}

/// Last-level cache size from CPUID's deterministic cache parameters, or 0
/// when the processor does not report it.
fn llc_bytes() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        // Leaves beyond the reported maxima are never queried.
        let max_leaf = __cpuid_count(0, 0).eax;
        let max_ext = __cpuid_count(0x8000_0000, 0).eax;
        let leaf = if max_leaf >= 4 {
            4
        } else if max_ext >= 0x8000_001D {
            0x8000_001D
        } else {
            return 0;
        };
        let mut best = 0u64;
        for sub in 0..16 {
            let r = __cpuid_count(leaf, sub);
            if r.eax & 0x1f == 0 {
                break;
            }
            let ways = ((r.ebx >> 22) & 0x3ff) as u64 + 1;
            let partitions = ((r.ebx >> 12) & 0x3ff) as u64 + 1;
            let line = (r.ebx & 0xfff) as u64 + 1;
            let sets = r.ecx as u64 + 1;
            best = best.max(ways * partitions * line * sets);
        }
        best
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    data: &Data,
    training: &mut Training,
    mut spans: Option<&mut Spans>,
    report: &mut Report,
) {
    // ── Set-up, repeated: catalog from the initial factors, engine build
    //    and first publish ─────────────────────────────────────────────────
    let mut build = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let noise = jitter(w, seed);
        let m = model(
            w,
            &data.data,
            training.x(),
            training.theta(),
            noise.as_ref(),
        );
        let engine = build_engine(w, &m);
        build.push(t0.elapsed().as_secs_f64());
        built = Some((engine, noise));
    }
    let (engine, noise) = built.expect("at least one set-up repetition");
    report.e2e("setup_s", data.setup_s + median(&build), "s", HOST);
    let id = engine.registry().default_model();
    let exact = matches!(w.retrieval, Retrieval::Exact);

    // ── Warm-up: one base chunk, not measured. The first chunk of a
    //    process grows the heap; publishes inside it took about twice as
    //    long as later ones. ─────────────────────────────────────────────
    let chunk_s = w.load.chunk_s;
    let mut next_id = 0u64;
    {
        let initial = model(
            w,
            &data.data,
            training.x(),
            training.theta(),
            noise.as_ref(),
        );
        let warm = run_phase(
            &engine,
            plan(
                w,
                &data.data,
                &initial,
                w.load.base_qps,
                chunk_s,
                seed ^ 0x3A53_0000,
                next_id,
            ),
            w.load.publish_every_s.map(|p| (p, &initial)),
        );
        next_id += warm.sent();
        account(&warm, "warm-up, not measured", true, report);
    }

    // ── Rounds until `seconds` are spent: train an epoch, publish it, serve
    //    a base-rate chunk and check its answers. Fits run whole, so the
    //    run ends on a fit's last epoch; the next fit starts while at
    //    least half of it fits before the deadline, or while fewer than
    //    `MIN_FITS` are complete. The medians over many short samples keep
    //    a slow stretch of the host from deciding a metric alone. ─────────
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round_s = Vec::new();
    let (mut base_lat, mut base_late) = (Vec::new(), Vec::new());
    let (mut round_publish_s, mut load_publish_s) = (Vec::new(), Vec::new());
    let (mut cache_hits, mut cache_lookups) = (0u64, 0u64);
    let mut base_phases: Vec<Phase> = Vec::new();
    let mut explain_dev = Vec::new();
    let mut m = None;
    for r in 0.. {
        if training.at_fit_start() && training.fits() >= MIN_FITS {
            let half_fit = median(&round_s) * w.fit_epochs as f64 / 2.0;
            if Instant::now() + Duration::from_secs_f64(half_fit) > deadline {
                break;
            }
        }
        let started = Instant::now();
        training.epoch(spans.as_deref_mut(), report);
        let model = model(
            w,
            &data.data,
            training.x(),
            training.theta(),
            noise.as_ref(),
        );
        engine
            .registry()
            .set_user_factors(&id, model.x.clone())
            .expect("swap in the epoch's user factors");
        let snapshot =
            model.snapshot(engine.registry().epoch(&id).expect("default model is live") + 1);
        let t0 = Instant::now();
        engine
            .registry()
            .publish(&id, snapshot)
            .expect("publish the epoch");
        round_publish_s.push(t0.elapsed().as_secs_f64());
        let reference = model.snapshot(0);
        let round_seed = seed ^ (r as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // The same base chunk in both modes: tracing builds its spans from
        // the completions after the run, so it adds no work while the
        // chunk is served.
        let phase = run_phase(
            &engine,
            plan(
                w,
                &data.data,
                &model,
                w.load.base_qps,
                chunk_s,
                round_seed,
                next_id,
            ),
            w.load.publish_every_s.map(|p| (p, &model)),
        );
        next_id += phase.sent();
        account(
            &phase,
            &format!("round {} base at {} req/s", r + 1, w.load.base_qps),
            true,
            report,
        );
        check_answers(
            &phase,
            &engine,
            &model,
            &reference,
            exact,
            &mut explain_dev,
            report,
        );
        base_lat.extend_from_slice(&phase.lat_ms);
        base_late.extend_from_slice(&phase.late_ms);
        load_publish_s.extend_from_slice(&phase.publish_s);
        cache_hits += phase.cache_hits;
        cache_lookups += phase.cache_lookups;
        if spans.is_some() {
            base_phases.push(phase);
        }
        m = Some(model);
        round_s.push(started.elapsed().as_secs_f64());
    }
    let rounds = round_s.len();
    let m = m.expect("at least one round");

    // ── Capacity (traced runs only): a binary search over the fixed
    //    ladder for the highest rate whose p99 meets the limit with no
    //    growing backlog. A rate misses only when a second probe at it
    //    misses too, so one host stall cannot end the search early. ──────
    let rates = ladder(w);
    let (mut lo, mut hi) = (0usize, rates.len());
    let mut probes = 0;
    while spans.is_some() && lo < hi {
        let mid = (lo + hi) / 2;
        let mut pass = false;
        for attempt in 0..2u64 {
            let seed = seed ^ (0x1ADD_E500 + mid as u64) ^ (attempt << 32);
            let plan = plan(w, &data.data, &m, rates[mid], w.load.probe_s, seed, next_id);
            next_id += plan.len() as u64;
            let probe = run_phase(&engine, plan, None);
            probes += 1;
            account(
                &probe,
                &format!("ladder {} req/s", rates[mid]),
                false,
                report,
            );
            let p99 = quantile(&probe.lat_ms, 0.99);
            let tail = &probe.lat_ms[probe.lat_ms.len() * 9 / 10..];
            let backlog = mean(tail) > SLO_MS;
            pass = p99 <= SLO_MS && !backlog;
            eprintln!(
                "ladder {:>8} req/s: p99 {p99:.3} ms over {} requests{}{}",
                rates[mid],
                probe.lat_ms.len(),
                if backlog { ", backlog growing" } else { "" },
                if pass { " — pass" } else { " — miss" }
            );
            if pass {
                break;
            }
        }
        if pass {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    training.finish(report);
    report_explain(&explain_dev, report);
    let catalog_bytes = (m.theta.rows() * m.theta.cols() * 4) as u64;
    report.note(format!(
        "catalog {} items x f={} = {} B FP32 (computed) beside a {} B last-level cache (CPUID); \
         {} shards on {} cores; {} users",
        m.theta.rows(),
        m.theta.cols(),
        catalog_bytes,
        llc_bytes(),
        engine.registry().n_shards(),
        cores(),
        m.x.rows()
    ));

    // Serving latency and capacity are per-layer metrics, not gated: on a
    // shared 2-vCPU host their run-to-run spread exceeds any usable bound.
    let n = base_lat.len();
    let p99 = quantile(&base_lat, 0.99);
    report.layer("serve_p50_ms", quantile(&base_lat, 0.5), "ms", HOST);
    report.layer("serve_p99_ms", p99, "ms", HOST);
    report.note(format!(
        "p50 {:.3} ms and p99 {p99:.3} ms over all {n} base-rate requests of {rounds} rounds ({} beyond p99), \
         timed from each scheduled send",
        quantile(&base_lat, 0.5),
        n / 100
    ));
    if spans.is_some() {
        let capacity = if lo == 0 { 0.0 } else { rates[lo - 1] };
        report.layer("serve_capacity_qps", capacity, "req/s", HOST);
        // Passing the top rate only bounds capacity from below.
        let censored = lo == rates.len();
        report.note(format!(
            "capacity {}{capacity} req/s: highest of {} fixed rates ({}..{} req/s) with p99 <= {SLO_MS} ms and no growing backlog; \
             {probes} probes of {:.2} s, a miss confirmed by a second probe; \
             the base rate {} req/s is {}{:.0}% of it",
            if censored { "at least " } else { "" },
            rates.len(),
            rates[0],
            rates[rates.len() - 1],
            w.load.probe_s,
            w.load.base_qps,
            if censored { "at most " } else { "" },
            100.0 * w.load.base_qps / capacity
        ));
    }
    report.note(format!(
        "cache: {cache_hits} hits of {cache_lookups} lookups ({:.1}%) over the base-rate phases",
        100.0 * cache_hits as f64 / cache_lookups.max(1) as f64
    ));
    // The latencies and the publishes under load come from the base-rate
    // phases, so a generator that fell behind there makes the whole run
    // invalid.
    let late_p99 = quantile(&base_late, 0.99);
    report.note(format!(
        "generator late p99 {late_p99:.3} ms over all {} base-rate sends; the run is invalid above {} ms",
        base_late.len(),
        LATE_LIMIT_SHARE * SLO_MS
    ));
    if late_p99 > LATE_LIMIT_SHARE * SLO_MS {
        report.invalid.push(format!(
            "the load generator fell behind: late p99 {late_p99:.3} ms over the base-rate phases exceeds {} ms",
            LATE_LIMIT_SHARE * SLO_MS
        ));
    }
    match spans {
        None => {
            let (publish_s, how) = if load_publish_s.is_empty() {
                (round_publish_s, "one per epoch, between phases")
            } else {
                (load_publish_s, "under load")
            };
            report.e2e("publish_s", median(&publish_s), "s", HOST);
            report.note(format!(
                "publish_s: median of {} publishes {how}",
                publish_s.len()
            ));
            let reference = m.snapshot(0);
            let r = recall(&engine, &m, &reference, seed, report);
            report.e2e("recall_at_10", r, "ratio", Source::Count);
            if exact {
                report.check(r == 1.0, || format!("exact serving recall@10 {r} is not 1"));
            } else {
                report.check(r >= 0.9, || format!("recall@10 {r:.4} below the 0.9 floor"));
            }
        }
        Some(spans) => {
            per_layer(
                &base_phases,
                chunk_s * rounds as f64,
                &engine,
                spans,
                report,
            );
            let last = base_phases.last().expect("at least one base phase");
            direct_timings(w, &data.data, &m, &engine, last, spans, report);
        }
    }
    let memory = engine.memory_report();
    report.e2e(
        "serve_resident_bytes",
        memory.total_bytes() as f64,
        "B",
        Source::Count,
    );
    for child in memory.children() {
        let name = match child.name() {
            "registry" => "serve.memory.registry_bytes",
            "cache" => "serve.memory.cache_bytes",
            "flight_recorder" => "serve.memory.flight_recorder_bytes",
            _ => continue,
        };
        report.layer(name, child.total_bytes() as f64, "B", Source::Count);
    }
}

/// Account a phase's operations and note its median latency, split into
/// queue wait and service, and how late the generator sent.
fn account(phase: &Phase, label: &str, base: bool, report: &mut Report) {
    report.attempted += phase.sent();
    report.failed += phase.errors + if base { phase.refused } else { 0 };
    let done = || phase.completions.iter().flatten();
    let queue: Vec<f64> = done()
        .map(|c| (c.admitted_at - c.submitted_at) * 1e3)
        .collect();
    let service: Vec<f64> = done()
        .map(|c| (c.finished_at - c.admitted_at) * 1e3)
        .collect();
    report.note(format!(
        "{label}: {} sent, {} served, {} typed errors, {} refused; p50 {:.3} ms, queue wait p50 {:.3} ms, \
         service p50 {:.3} ms; generator late p99 {:.3} ms",
        phase.sent(),
        phase.sent() - phase.errors - phase.refused,
        phase.errors,
        phase.refused,
        quantile(&phase.lat_ms, 0.5),
        quantile(&queue, 0.5),
        quantile(&service, 0.5),
        quantile(&phase.late_ms, 0.99)
    ));
}

/// Per-layer serving metrics over the traced phases: spans from the
/// generator's submits and from each completion's stage breakdown (moved
/// from the engine clock to the span clock), stage percentiles, admission
/// and cache ratios, and the host time spent building the spans as a share
/// of the `served_s` seconds the phases were scheduled to take.
fn per_layer(
    phases: &[Phase],
    served_s: f64,
    engine: &ServeEngine,
    spans: &mut Spans,
    report: &mut Report,
) {
    let started = Instant::now();
    let offset = spans.now() - engine.now();
    let mut stages: [Vec<f64>; 6] = Default::default();
    let (mut service, mut cold_foldin, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let (mut batches, mut admitted, mut by_age) = (0u64, 0u64, 0u64);
    let (mut hits, mut lookups) = (0u64, 0u64);
    for phase in phases {
        batches += phase.admission.batches;
        admitted += phase.admission.admitted;
        by_age += phase.admission.closed_by_age;
        hits += phase.cache_hits;
        lookups += phase.cache_lookups;
        late.extend_from_slice(&phase.late_ms);
        for (i, (p, c)) in phase.plan.iter().zip(&phase.completions).enumerate() {
            let due = phase.origin + p.at + offset;
            let id = Some(p.req.id);
            let traced = i < SPANNED_REQUESTS;
            if traced {
                spans.push(
                    "bench.loadgen.submit",
                    due,
                    due + phase.late_ms[i] / 1e3,
                    None,
                    id,
                    Clock::Host,
                );
            }
            let Some(c) = c else { continue };
            let root = traced.then(|| {
                spans.push(
                    "serve.request",
                    due,
                    c.finished_at + offset,
                    None,
                    id,
                    Clock::Host,
                )
            });
            let mut t = due;
            for (j, (name, d)) in c.span.stages.as_pairs().into_iter().enumerate() {
                let name = match name {
                    "queue" => "serve.admission.queue",
                    "cache" => "serve.cache.lookup",
                    "foldin" => "core.fold_in",
                    "score" => "serve.shard.score",
                    "merge" => "serve.topk.merge",
                    _ => "serve.engine.respond",
                };
                if traced {
                    spans.push(name, t, t + d, root, id, Clock::Host);
                }
                t += d;
                stages[j].push(d * 1e3);
            }
            service.push((c.finished_at - c.admitted_at) * 1e3);
            if p.kind == Kind::Cold {
                cold_foldin.push(c.span.stages.foldin * 1e3);
            }
        }
    }
    let tracing_s = started.elapsed().as_secs_f64();
    let [queue, cache, _foldin, score, merge, _respond] = &stages;
    report.layer(
        "serve.admission.queue_wait_ms.p50",
        quantile(queue, 0.5),
        "ms",
        HOST,
    );
    report.layer(
        "serve.admission.queue_wait_ms.p99",
        quantile(queue, 0.99),
        "ms",
        HOST,
    );
    report.layer(
        "serve.admission.mean_batch",
        admitted as f64 / batches.max(1) as f64,
        "requests",
        Source::Count,
    );
    report.layer(
        "serve.admission.age_closed_ratio",
        by_age as f64 / batches.max(1) as f64,
        "ratio",
        Source::Count,
    );
    report.layer(
        "serve.engine.service_ms.p50",
        quantile(&service, 0.5),
        "ms",
        HOST,
    );
    report.layer(
        "serve.engine.service_ms.p99",
        quantile(&service, 0.99),
        "ms",
        HOST,
    );
    report.layer(
        "serve.cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
        Source::Count,
    );
    report.layer("serve.cache.stage_ms.p50", quantile(cache, 0.5), "ms", HOST);
    report.layer(
        "core.fold_in.stage_ms.p99",
        quantile(&cold_foldin, 0.99),
        "ms",
        HOST,
    );
    if cold_foldin.is_empty() {
        report.note("core.fold_in.stage_ms.p99 is 0: this mix sends no cold fold-ins".into());
    }
    report.layer("serve.shard.score_ms.p50", quantile(score, 0.5), "ms", HOST);
    report.layer(
        "serve.shard.score_ms.p99",
        quantile(score, 0.99),
        "ms",
        HOST,
    );
    report.layer("serve.topk.merge_ms.p99", quantile(merge, 0.99), "ms", HOST);
    report.layer(
        "bench.loadgen.late_ms.p99",
        quantile(&late, 0.99),
        "ms",
        HOST,
    );
    report.layer(
        "bench.trace.overhead_ratio",
        tracing_s / served_s,
        "ratio",
        HOST,
    );
    report.note(format!(
        "stage percentiles over {} traced requests; queue wait counts from the scheduled send, so it includes generator lateness; \
         tracing spent {tracing_s:.4} s building spans after the phases, outside the {served_s:.1} s they were timed over, \
         so it adds 0 to the served latencies",
        service.len()
    ));
}

/// Time scatter/gather, score_tile, fold_in_batch, the shard split and the
/// centroid index directly on inputs the traced phase replayed.
fn direct_timings(
    w: &Workload,
    data: &MfDataset,
    m: &Model,
    engine: &ServeEngine,
    phase: &Phase,
    spans: &mut Spans,
    report: &mut Report,
) {
    let sharded = engine
        .registry()
        .snapshot(&engine.registry().default_model())
        .expect("default model is live");
    let users: Vec<u32> = phase
        .plan
        .iter()
        .filter(|p| matches!(p.kind, Kind::TopK | Kind::Rank | Kind::Explain))
        .map(|p| p.user)
        .take(32)
        .collect();
    let cfg = engine.config().score;
    let exact_cfg = ScoreConfig {
        retrieval: Retrieval::Exact,
        ..cfg
    };
    let (mut scatter_s, mut gather_s, mut imbalance) = (0.0, 0.0, Vec::new());
    let (mut bytes, mut exact_bytes, mut probed, mut rescored) = (0u64, 0u64, 0u64, 0u64);
    for &u in &users {
        let q = DenseMatrix::from_vec(1, m.x.cols(), m.x.row(u as usize).to_vec());
        let s0 = spans.open("serve.shard.scatter_top_k", None);
        let t0 = Instant::now();
        let scatter = scatter_top_k(&sharded, &q, K, &cfg, &NOOP, 0.0);
        let t1 = Instant::now();
        spans.close(s0);
        let s1 = spans.open("serve.shard.gather", None);
        let (ranked, timings) = scatter.gather(K);
        let t2 = Instant::now();
        spans.close(s1);
        black_box(ranked);
        scatter_s += (t1 - t0).as_secs_f64();
        gather_s += (t2 - t1).as_secs_f64();
        let secs: Vec<f64> = timings.iter().map(|t| t.secs).collect();
        imbalance.push(secs.iter().cloned().fold(0.0, f64::max) / mean(&secs));
        bytes += timings.iter().map(|t| t.bytes).sum::<u64>();
        probed += timings.iter().map(|t| t.probed_clusters).sum::<u64>();
        rescored += timings.iter().map(|t| t.rescored).sum::<u64>();
        let (_, exact_timings) = scatter_top_k(&sharded, &q, K, &exact_cfg, &NOOP, 0.0).gather(K);
        exact_bytes += exact_timings.iter().map(|t| t.bytes).sum::<u64>();
    }
    let n_users = users.len().max(1) as f64;
    let gbps = bytes as f64 / scatter_s / 1e9;
    report.layer("serve.shard.imbalance", mean(&imbalance), "ratio", HOST);
    report.layer(
        "serve.scorer.scan_bytes_per_user",
        bytes as f64 / n_users,
        "B",
        Source::Computed,
    );
    report.layer("serve.scorer.gbps", gbps, "GB/s", HOST);

    // Single-thread microkernel over the same catalog for one user, the
    // shape of the one-user scatters above.
    let f = m.theta.cols();
    let n_items = m.theta.rows();
    let user = m.x.row(users.first().copied().unwrap_or(0) as usize);
    let mut out = vec![0.0f32; n_items];
    let mut tile_s = Vec::new();
    for _ in 0..3 {
        let s = spans.open("numeric.kernel.score_tile", None);
        let t0 = Instant::now();
        kernel::score_tile(user, 1, m.theta.as_slice(), n_items, f, &mut out);
        black_box(&out);
        tile_s.push(t0.elapsed().as_secs_f64());
        spans.close(s);
    }
    let kernel_gbps = (n_items * f * 4) as f64 / median(&tile_s) / 1e9;
    report.layer(
        "serve.scorer.of_kernel_gbps",
        gbps / kernel_gbps,
        "ratio",
        HOST,
    );
    report.note(format!(
        "scorer: {:.2} GB/s over {} one-user scatters (bytes computed from array sizes) vs single-thread score_tile {kernel_gbps:.2} GB/s; \
         scatter {:.3} ms + gather {:.3} ms per user",
        gbps,
        users.len(),
        scatter_s / n_users * 1e3,
        gather_s / n_users * 1e3
    ));

    let approx = !matches!(w.retrieval, Retrieval::Exact);
    report.layer(
        "serve.ann.probed_per_user",
        if approx { probed as f64 / n_users } else { 0.0 },
        "clusters",
        Source::Count,
    );
    report.layer(
        "serve.ann.rescored_per_user",
        if approx {
            rescored as f64 / n_users
        } else {
            0.0
        },
        "items",
        Source::Count,
    );
    report.layer(
        "serve.ann.bytes_ratio",
        if approx {
            exact_bytes as f64 / bytes.max(1) as f64
        } else {
            0.0
        },
        "ratio",
        Source::Computed,
    );

    // Fold-in on the cold histories the phase sent, or on training rows
    // when the mix sends none.
    let mut histories: Vec<Vec<(u32, f32)>> = phase
        .plan
        .iter()
        .filter_map(|p| match &p.req.query {
            cumf_serve::Query::User(cumf_serve::UserRef::Cold(h)) => Some(h.clone()),
            _ => None,
        })
        .take(64)
        .collect();
    if histories.is_empty() {
        histories = (0..data.m())
            .map(|u| data.r.row_iter(u).collect::<Vec<_>>())
            .filter(|h| !h.is_empty())
            .take(64)
            .collect();
    }
    let serve_cfg = engine.config();
    let s = spans.open("core.fold_in_batch", None);
    let t0 = Instant::now();
    black_box(fold_in_batch(
        &m.theta,
        &histories,
        serve_cfg.lambda,
        &serve_cfg.solver,
    ));
    let fold_s = t0.elapsed().as_secs_f64();
    spans.close(s);
    report.layer(
        "core.fold_in.host_s_per_row",
        fold_s / histories.len().max(1) as f64,
        "s",
        HOST,
    );

    let snapshot = m.snapshot(0);
    let s = spans.open("serve.shard.build", None);
    let t0 = Instant::now();
    black_box(ShardedSnapshot::build(snapshot, cores()));
    report.layer("serve.shard.build_s", t0.elapsed().as_secs_f64(), "s", HOST);
    spans.close(s);
    let s = spans.open("serve.ann.index_build", None);
    let t0 = Instant::now();
    black_box(CentroidIndex::build(&m.theta, w.ann));
    report.layer(
        "serve.ann.index_build_s",
        t0.elapsed().as_secs_f64(),
        "s",
        HOST,
    );
    spans.close(s);
}
