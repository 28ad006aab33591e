//! Single-threaded in-process replay of a run's requests through each
//! layer's public functions, in pipeline order.
//!
//! The pipeline spans of one request sit under one `request` span and add up
//! to its wall time. Calls that re-run part of the compute to time it alone
//! (Sinkhorn, the SVD, a session engine's recompute) go under a separate
//! root, so they do not count against the pipeline.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hc_core::ecs::Etc;
use hc_core::standard::{standard_form, tma_from_standard_form, TmaOptions};
use hc_core::Analyzer;
use hc_linalg::bidiag::bidiagonalize;
use hc_linalg::SvdAlgorithm;
use hc_serve::cache::{cache_key, CachedResponse, ShardedCache};
use hc_serve::http::RequestParser;
use hc_session::{parse_edits, to_ecs_value, SessionConfig, SessionEngine, SessionStore};

use crate::trace::Tracer;
use crate::workload::{Desc, Inputs, SESSIONS};

/// The server's default request-body cap and result-cache capacity.
const MAX_BODY: usize = 8 * 1024 * 1024;
const CACHE_ENTRIES: usize = 256;

/// Spans when tracing, nothing otherwise: the replay makes the same calls
/// either way, so the difference in wall time is the tracing overhead.
struct Rec(Option<Tracer>);

impl Rec {
    fn begin(&mut self, name: &'static str, parent: Option<usize>, rid: &str) -> Option<usize> {
        self.0.as_mut().map(|t| t.begin(name, parent, rid))
    }

    fn end(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (self.0.as_mut(), id) {
            t.end(id);
        }
    }
}

/// What one replay pass produced.
pub struct Replay {
    /// Requests replayed.
    pub requests: usize,
    /// Wall time of the whole pass.
    pub wall_s: f64,
    pub pipeline: Option<Tracer>,
    pub isolated: Option<Tracer>,
    /// Per-call counts the layers report (iterations, bytes).
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

/// Replays `descs` in order, with spans when `traced`, stopping after the
/// request that takes the pass past `limit`.
pub fn replay(
    inputs: &Inputs,
    descs: &[Desc],
    traced: bool,
    limit: Duration,
) -> Result<Replay, String> {
    let epoch = Instant::now();
    let tracer = || traced.then(|| Tracer::new(epoch));
    let (mut pipe, mut iso) = (Rec(tracer()), Rec(tracer()));
    let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let opts = TmaOptions::default();
    let e = |x: &dyn std::fmt::Debug| format!("{x:?}");

    // Session state is built before the clock starts.
    let store = SessionStore::new(SessionConfig::default());
    let mut sessions = Vec::new();
    if descs.iter().any(|d| !matches!(d, Desc::Measure { .. })) {
        for base in inputs.bases.iter().take(SESSIONS) {
            let ecs = Etc::new(base.etc.clone()).map_err(|x| e(&x))?.to_ecs();
            let snap = store.create(ecs.clone(), true, None).map_err(|x| e(&x))?;
            let mut engine = SessionEngine::new(ecs);
            engine.recompute(None).map_err(|x| e(&x))?;
            sessions.push((snap.id, snap.task_names, snap.machine_names, engine));
        }
    }
    let ids: Vec<String> = sessions.iter().map(|s| s.0.clone()).collect();
    let cache = ShardedCache::new(CACHE_ENTRIES);
    let mut analyzer = Analyzer::new();

    let t0 = Instant::now();
    let mut requests = 0;
    for (k, desc) in descs.iter().enumerate() {
        if t0.elapsed() > limit {
            break;
        }
        requests += 1;
        let rid = format!("replay-{k}");
        let bytes = inputs.request_bytes(desc, &rid, &ids);
        let root = pipe.begin("request", None, &rid);
        let s = pipe.begin("http.parse", root, &rid);
        let mut parser = RequestParser::new(MAX_BODY);
        parser.feed(&bytes);
        let (req, _) = parser
            .poll()
            .map_err(|x| x.message)?
            .ok_or("replayed request is incomplete")?;
        pipe.end(s);
        match *desc {
            Desc::Measure { .. } => {
                let s = pipe.begin("cache.lookup", root, &rid);
                let key = cache_key("measure", "", req.body.as_slice());
                let hit = cache.get(key);
                pipe.end(s);
                if hit.is_some() {
                    pipe.end(root);
                    continue;
                }
                let s = pipe.begin("csv.parse", root, &rid);
                let text = req.body_text().map_err(|x| x.message)?;
                let ecs = hc_spec::csv::from_csv(text).map_err(|x| e(&x))?.to_ecs();
                pipe.end(s);
                let s = pipe.begin("core.characterize", root, &rid);
                let report = analyzer
                    .characterize_with(&ecs, None, &opts)
                    .map_err(|x| e(&x))?;
                pipe.end(s);
                let s = pipe.begin("core.to_json", root, &rid);
                let json = report.to_json(ecs.task_names(), ecs.machine_names());
                pipe.end(s);
                counts
                    .entry("core.json_bytes")
                    .or_default()
                    .push(json.len() as f64);
                analyzer.recycle_report(report);
                cache.put(
                    key,
                    CachedResponse {
                        content_type: "application/json",
                        body: Arc::from(json.into_bytes()),
                    },
                );
                pipe.end(root);

                let r = iso.begin("compute", None, &rid);
                let s = iso.begin("sinkhorn.standardize", r, &rid);
                let sf = standard_form(&ecs, &opts).map_err(|x| e(&x))?;
                iso.end(s);
                counts
                    .entry("sinkhorn.iterations")
                    .or_default()
                    .push(sf.iterations as f64);
                let s = iso.begin("svd.tma", r, &rid);
                tma_from_standard_form(&sf, SvdAlgorithm::Auto).map_err(|x| e(&x))?;
                iso.end(s);
                let s = iso.begin("svd.bidiag", r, &rid);
                bidiagonalize(&sf.matrix).map_err(|x| e(&x))?;
                iso.end(s);
                iso.end(r);
            }
            Desc::Patch { session, edit } => {
                let (id, tasks, machines, engine) = &mut sessions[session as usize];
                let text = req.body_text().map_err(|x| x.message)?;
                let edits = parse_edits(text, tasks, machines).map_err(|x| e(&x))?;
                let s = pipe.begin("session.patch", root, &rid);
                let snap = store.patch(id, &edits, None, None).map_err(|x| e(&x))?;
                pipe.end(s);
                let s = pipe.begin("core.to_json", root, &rid);
                let json = snap.report.to_json(&snap.task_names, &snap.machine_names);
                pipe.end(s);
                counts
                    .entry("core.json_bytes")
                    .or_default()
                    .push(json.len() as f64);
                pipe.end(root);

                let s = iso.begin("session.recompute", None, &rid);
                engine
                    .set(
                        edit.task as usize,
                        edit.machine as usize,
                        to_ecs_value(edit.value, true),
                    )
                    .map_err(|x| e(&x))?;
                let (report, stats) = engine.recompute(None).map_err(|x| e(&x))?;
                iso.end(s);
                engine.recycle_report(report);
                counts
                    .entry("session.iterations")
                    .or_default()
                    .push(stats.total_iterations() as f64);
            }
            Desc::Get { session } => {
                let snap = store
                    .get(&sessions[session as usize].0)
                    .ok_or("replayed session vanished")?;
                let s = pipe.begin("core.to_json", root, &rid);
                let json = snap.report.to_json(&snap.task_names, &snap.machine_names);
                pipe.end(s);
                counts
                    .entry("core.json_bytes")
                    .or_default()
                    .push(json.len() as f64);
                pipe.end(root);
            }
        }
    }
    Ok(Replay {
        requests,
        wall_s: t0.elapsed().as_secs_f64(),
        pipeline: pipe.0,
        isolated: iso.0,
        counts,
    })
}
