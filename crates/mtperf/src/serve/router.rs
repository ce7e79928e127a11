//! The router layer: one protocol line in, typed dispatch out.
//!
//! Sits between [`super::transport`] (which owns connections and framing
//! buffers, and calls `handle_line` through the daemon's
//! `transport::Dispatch`) and the engine/registry layers (which
//! own models and compute). The router:
//!
//! * parses each bounded line into a [`Request`] and answers malformed
//!   input with typed `bad_request` errors — a bad line never kills its
//!   connection, let alone the daemon;
//! * validates predict payloads (shape, width, finiteness, row limits)
//!   *before* anything is queued;
//! * resolves the target model/version through the registry (v2 requests
//!   name them; v1 requests fall through to the default model), consults
//!   the prediction cache, and admits the job through the per-tenant
//!   fair queue;
//! * dispatches the control-plane ops: `health`/`ready`, `reload`
//!   (v1 default-model semantics), `save`, `load`, `promote`,
//!   `rollback`, `list`, `shutdown`.
//!
//! Every response goes back through the *issuing connection's* shared
//! writer — the routing invariant the DST harness checks across
//! interleaved connections.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use mtperf_linalg::{CancelToken, Matrix};

use super::admission::PushError;
use super::cache::MAX_CACHED_ROWS;
use super::protocol::{self, Request, Response};
use super::registry::{LookupError, DEFAULT_MODEL};
use super::{send, Job, SessionControl, Shared, SharedWriter};

fn tenant_of(req: &Request) -> String {
    req.model
        .clone()
        .unwrap_or_else(|| DEFAULT_MODEL.to_string())
}

fn handle_predict(shared: &Shared, req: Request, writer: &SharedWriter) {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    mtperf_obs::add("serve.requests", 1);
    let id = req.id;
    if shared.draining.load(Ordering::SeqCst) {
        send(
            writer,
            &Response::error(id, protocol::E_SHUTTING_DOWN, "daemon is draining"),
        );
        return;
    }
    let tenant = req
        .model
        .clone()
        .unwrap_or_else(|| DEFAULT_MODEL.to_string());
    let resolved =
        match super::lock_registry(shared).resolve(req.model.as_deref(), req.version.as_deref()) {
            Ok(r) => r,
            Err(e) => {
                send(
                    writer,
                    &Response::error(id, protocol::E_UNKNOWN_MODEL, e.to_string()),
                );
                return;
            }
        };
    let rows = match req.rows {
        Some(rows) if !rows.is_empty() => rows,
        _ => {
            send(
                writer,
                &Response::error(
                    id,
                    protocol::E_BAD_REQUEST,
                    "predict requires a non-empty rows array",
                ),
            );
            return;
        }
    };
    if rows.len() > protocol::MAX_ROWS_PER_REQUEST {
        send(
            writer,
            &Response::error(
                id,
                protocol::E_BAD_REQUEST,
                format!(
                    "request has {} rows, limit is {}",
                    rows.len(),
                    protocol::MAX_ROWS_PER_REQUEST
                ),
            ),
        );
        return;
    }
    let n_attrs = resolved.model.n_attrs();
    let width = rows[0].len();
    if width < n_attrs {
        send(
            writer,
            &Response::error(
                id,
                protocol::E_BAD_REQUEST,
                format!("rows have {width} values, model expects {n_attrs}"),
            ),
        );
        return;
    }
    if rows.iter().any(|r| r.len() != width) {
        send(
            writer,
            &Response::error(id, protocol::E_BAD_REQUEST, "rows have unequal lengths"),
        );
        return;
    }
    if rows.iter().flatten().any(|v| !v.is_finite()) {
        send(
            writer,
            &Response::error(
                id,
                protocol::E_BAD_REQUEST,
                "rows contain non-finite values",
            ),
        );
        return;
    }
    // The deadline outranks the cache: an already-expired request is a
    // deadline miss even when a memoized answer exists (v1 contract — a
    // `deadline_ms: 0` probe must report `deadline_exceeded`).
    let token = match req.deadline_ms.or(shared.default_deadline_ms) {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::new(),
    };
    if token.is_cancelled() {
        shared.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
        mtperf_obs::add("serve.deadline_miss", 1);
        send(
            writer,
            &Response::error(id, protocol::E_DEADLINE, "deadline expired while queued"),
        );
        return;
    }
    // The cache may answer without touching the queue at all. Degraded
    // entries bypass it both ways: a hit must never hide the degraded
    // health flag, and a degraded result must never be memoized.
    let mut cacheable = rows.len() <= MAX_CACHED_ROWS && !resolved.degraded;
    if cacheable {
        let cache = shared.cache.lock().unwrap_or_else(|e| e.into_inner());
        if !cache.enabled() {
            cacheable = false;
        } else if let Some(predictions) = cache.lookup(&tenant, &resolved.version, &rows) {
            drop(cache);
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            mtperf_obs::add("serve.cache_hits", 1);
            send(writer, &Response::predictions(id, predictions, false));
            return;
        } else {
            shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            mtperf_obs::add("serve.cache_misses", 1);
        }
    }
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let matrix = match Matrix::from_rows(&refs) {
        Ok(m) => m,
        Err(e) => {
            send(
                writer,
                &Response::error(id, protocol::E_BAD_REQUEST, e.to_string()),
            );
            return;
        }
    };
    let job = Job {
        id: id.clone(),
        tenant: tenant.clone(),
        version: resolved.version,
        model: resolved.model,
        model_degraded: resolved.degraded,
        raw_rows: cacheable.then(|| rows.clone()),
        rows: matrix,
        token,
        writer: Arc::clone(writer),
    };
    match shared.queue.try_push(&tenant, job) {
        Ok(depth) => mtperf_obs::gauge("serve.queue_depth", depth as f64),
        Err(PushError::Full) => {
            shared.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            mtperf_obs::add("serve.overloaded", 1);
            send(
                writer,
                &Response::error(
                    id,
                    protocol::E_OVERLOADED,
                    format!("queue full ({} requests)", shared.queue.capacity()),
                ),
            );
        }
        Err(PushError::Quota) => {
            shared.stats.quota_refusals.fetch_add(1, Ordering::Relaxed);
            mtperf_obs::add("serve.quota_refusals", 1);
            send(
                writer,
                &Response::error(
                    id,
                    protocol::E_OVERLOADED,
                    format!(
                        "tenant quota full ({} requests queued for model {tenant:?})",
                        shared.queue.quota()
                    ),
                ),
            );
        }
        Err(PushError::Closed) => {
            send(
                writer,
                &Response::error(id, protocol::E_SHUTTING_DOWN, "daemon is draining"),
            );
        }
    }
}

fn health_payload(shared: &Shared) -> protocol::Health {
    let (model_path, degraded, models, versions, per_model) = {
        let reg = super::lock_registry(shared);
        let (m, v) = reg.counts();
        // One health row per model: a fleet router merges these (a model
        // is fleet-degraded only when *no* replica serves it clean), which
        // the single global flag cannot express.
        let per_model: Vec<protocol::ModelHealth> = reg
            .list()
            .into_iter()
            .map(|info| protocol::ModelHealth {
                last_error: reg.last_error(&info.name),
                name: info.name,
                degraded: info.degraded,
                active: info.active,
            })
            .collect();
        (
            reg.default_path().display().to_string(),
            reg.degraded(),
            m,
            v,
            per_model,
        )
    };
    let draining = shared.draining.load(Ordering::SeqCst);
    protocol::Health {
        ready: !draining,
        degraded,
        model: model_path,
        workers: shared.workers,
        queue_depth: shared.queue.depth(),
        queue_capacity: shared.queue.capacity(),
        requests: shared.stats.requests.load(Ordering::Relaxed),
        overloaded: shared.stats.overloaded.load(Ordering::Relaxed),
        deadline_misses: shared.stats.deadline_misses.load(Ordering::Relaxed),
        degraded_responses: shared.stats.degraded_responses.load(Ordering::Relaxed),
        reloads: shared.stats.reloads.load(Ordering::Relaxed),
        models,
        versions,
        cache_hits: shared.stats.cache_hits.load(Ordering::Relaxed),
        cache_misses: shared.stats.cache_misses.load(Ordering::Relaxed),
        quota_refusals: shared.stats.quota_refusals.load(Ordering::Relaxed),
        per_model,
        draining,
    }
}

fn handle_reload(shared: &Shared, req: Request, writer: &SharedWriter) {
    if req.model.as_deref().is_some_and(|m| m != DEFAULT_MODEL) {
        send(
            writer,
            &Response::error(
                req.id,
                protocol::E_BAD_REQUEST,
                "reload targets the default model; use promote for named models",
            ),
        );
        return;
    }
    let path = req.path.as_ref().map(PathBuf::from);
    let result = super::lock_registry(shared).reload(path.as_deref());
    match result {
        Ok(()) => {
            shared.stats.reloads.fetch_add(1, Ordering::Relaxed);
            mtperf_obs::add("serve.reloads", 1);
            // A reload can replace a resident version's model in place;
            // memoized predictions for it would be stale.
            shared
                .cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clear();
            send(writer, &Response::ack(req.id));
        }
        Err(e) => {
            mtperf_obs::add("serve.reload_failures", 1);
            send(
                writer,
                &Response::error(req.id, protocol::E_RELOAD_FAILED, e),
            );
        }
    }
}

fn handle_load(shared: &Shared, req: Request, writer: &SharedWriter) {
    mtperf_obs::add("serve.registry_ops", 1);
    let Some(path) = req.path.as_ref().map(PathBuf::from) else {
        send(
            writer,
            &Response::error(req.id, protocol::E_BAD_REQUEST, "load requires a path"),
        );
        return;
    };
    let name = tenant_of(&req);
    let result = super::lock_registry(shared).load(&name, req.version.as_deref(), &path);
    match result {
        Ok(()) => send(writer, &Response::ack(req.id)),
        Err(e) => send(
            writer,
            &Response::error(req.id, protocol::E_RELOAD_FAILED, e),
        ),
    }
}

fn handle_promote(shared: &Shared, req: Request, writer: &SharedWriter) {
    mtperf_obs::add("serve.registry_ops", 1);
    let name = tenant_of(&req);
    let path = req.path.as_ref().map(PathBuf::from);
    if path.is_none() && req.version.is_none() {
        send(
            writer,
            &Response::error(
                req.id,
                protocol::E_BAD_REQUEST,
                "promote requires a version or a path",
            ),
        );
        return;
    }
    {
        let reg = super::lock_registry(shared);
        if !reg.contains(&name) {
            send(
                writer,
                &Response::error(
                    req.id,
                    protocol::E_UNKNOWN_MODEL,
                    LookupError::UnknownModel(name).to_string(),
                ),
            );
            return;
        }
        if path.is_none() {
            let v = req.version.as_deref().expect("checked above");
            if !reg.has_version(&name, v) {
                send(
                    writer,
                    &Response::error(
                        req.id,
                        protocol::E_UNKNOWN_MODEL,
                        LookupError::UnknownVersion(name, v.to_string()).to_string(),
                    ),
                );
                return;
            }
        }
    }
    let result =
        super::lock_registry(shared).promote(&name, req.version.as_deref(), path.as_deref());
    match result {
        Ok(()) => send(writer, &Response::ack(req.id)),
        Err(e) => {
            mtperf_obs::add("serve.promote_failures", 1);
            send(
                writer,
                &Response::error(req.id, protocol::E_PROMOTE_FAILED, e),
            );
        }
    }
}

fn handle_rollback(shared: &Shared, req: Request, writer: &SharedWriter) {
    mtperf_obs::add("serve.registry_ops", 1);
    let name = tenant_of(&req);
    if !super::lock_registry(shared).contains(&name) {
        send(
            writer,
            &Response::error(
                req.id,
                protocol::E_UNKNOWN_MODEL,
                LookupError::UnknownModel(name).to_string(),
            ),
        );
        return;
    }
    let result = super::lock_registry(shared).rollback(&name);
    match result {
        Ok(_) => send(writer, &Response::ack(req.id)),
        Err(e) => send(
            writer,
            &Response::error(req.id, protocol::E_ROLLBACK_FAILED, e),
        ),
    }
}

/// Dispatches one protocol line. Returns [`SessionControl::Shutdown`]
/// only for an acked `shutdown` request.
pub(crate) fn handle_line(shared: &Shared, line: &str, writer: &SharedWriter) -> SessionControl {
    let req: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            send(
                writer,
                &Response::error(
                    None,
                    protocol::E_BAD_REQUEST,
                    format!("unparsable request: {e}"),
                ),
            );
            return SessionControl::Continue;
        }
    };
    match req.op.as_deref() {
        Some("predict") => handle_predict(shared, req, writer),
        Some("health" | "ready") => {
            send(writer, &Response::health(req.id, health_payload(shared)));
        }
        Some("reload") => handle_reload(shared, req, writer),
        Some("load") => handle_load(shared, req, writer),
        Some("promote") => handle_promote(shared, req, writer),
        Some("rollback") => handle_rollback(shared, req, writer),
        Some("list") => {
            mtperf_obs::add("serve.registry_ops", 1);
            let models = super::lock_registry(shared).list();
            send(writer, &Response::models(req.id, models));
        }
        Some("save") => {
            let name = tenant_of(&req);
            let path = req.path.as_ref().map(PathBuf::from);
            let result = super::lock_registry(shared).save(&name, path.as_deref());
            match result {
                Ok(_) => send(writer, &Response::ack(req.id)),
                Err(e) => send(writer, &Response::error(req.id, protocol::E_SAVE_FAILED, e)),
            }
        }
        Some("shutdown") => {
            send(writer, &Response::ack(req.id));
            return SessionControl::Shutdown;
        }
        Some(other) => send(
            writer,
            &Response::error(
                req.id,
                protocol::E_BAD_REQUEST,
                format!("unknown op {other:?}"),
            ),
        ),
        None => send(
            writer,
            &Response::error(req.id, protocol::E_BAD_REQUEST, "request is missing op"),
        ),
    }
    SessionControl::Continue
}

#[cfg(test)]
mod tests {
    use super::super::tests::{test_shared, test_shared_with, Capture};
    use super::super::transport::run_session;
    use super::super::worker_loop;
    use super::*;
    use mtperf_mtree::ModelTree;
    use std::io;
    use std::sync::Mutex;

    #[test]
    fn malformed_lines_get_bad_request_responses() {
        let (shared, _, _) = test_shared("malformed", 4);
        let cap = Capture::default();
        for line in [
            "this is not json",
            r#"{"id":"x"}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"predict"}"#,
            r#"{"op":"predict","rows":[]}"#,
            r#"{"op":"predict","rows":[[1.0]]}"#,
            r#"{"op":"predict","rows":[[1.0,2.0],[1.0,2.0,3.0]]}"#,
            r#"{"op":"predict","rows":[[1.0,1e999]]}"#,
            r#"{"op":"load"}"#,
            r#"{"op":"promote"}"#,
        ] {
            assert!(matches!(
                handle_line(&shared, line, &cap.shared()),
                SessionControl::Continue
            ));
        }
        let out = cap.text();
        assert_eq!(out.lines().count(), 10, "{out}");
        assert_eq!(out.matches("\"kind\":\"bad_request\"").count(), 10, "{out}");
        // Malformed predicts never reach the queue.
        assert_eq!(shared.queue.depth(), 0);
    }

    #[test]
    fn giant_payloads_get_typed_errors_not_resource_exhaustion() {
        let (shared, _, _) = test_shared("giant", 4);

        // A predict with more rows than MAX_ROWS_PER_REQUEST: refused with
        // a typed bad_request before any matrix is built or queued.
        let cap = Capture::default();
        let mut line = String::from(r#"{"op":"predict","id":"big","rows":["#);
        for i in 0..=protocol::MAX_ROWS_PER_REQUEST {
            if i > 0 {
                line.push(',');
            }
            line.push_str("[1.0,2.0]");
        }
        line.push_str("]}");
        handle_line(&shared, &line, &cap.shared());
        let out = cap.text();
        assert!(out.contains("\"kind\":\"bad_request\""), "{out}");
        assert!(out.contains("\"id\":\"big\""), "{out}");
        assert_eq!(shared.queue.depth(), 0);

        // A line over MAX_LINE_BYTES arriving over a real session: the
        // overflow is discarded, a typed error goes back, and the next
        // request on the same connection still works.
        let stream = mtperf_detsim::SimStream::new();
        stream.push_input(&vec![b'z'; protocol::MAX_LINE_BYTES + 1]);
        stream.push_input(b"\n{\"op\":\"health\",\"id\":\"after\"}\n");
        // Invalid UTF-8 on the wire: lossy-decoded, answered as a typed
        // parse error, session continues.
        stream.push_input(&[0xFF, 0xFE, b'{', b'\n']);
        stream.close_input();
        let (reader, writer_half) = stream.split();
        let writer: SharedWriter = Arc::new(Mutex::new(Box::new(writer_half)));
        run_session(&*shared, io::BufReader::new(reader), writer);
        let out = String::from_utf8_lossy(&stream.output()).into_owned();
        assert_eq!(out.lines().count(), 3, "{out}");
        assert!(
            out.contains(&format!(
                "request line exceeds {} bytes",
                protocol::MAX_LINE_BYTES
            )),
            "{out}"
        );
        assert!(out.contains("\"id\":\"after\""), "{out}");
        assert_eq!(out.matches("\"kind\":\"bad_request\"").count(), 2, "{out}");
    }

    #[test]
    fn full_queue_answers_overloaded_without_blocking() {
        // Queue of 1 and no workers draining it.
        let (shared, _, _) = test_shared("overload", 1);
        let cap = Capture::default();
        let predict = r#"{"op":"predict","id":"p","rows":[[1.0,2.0]]}"#;
        handle_line(&shared, predict, &cap.shared());
        assert_eq!(shared.queue.depth(), 1);
        assert_eq!(cap.text(), "", "first request queues silently");
        handle_line(&shared, predict, &cap.shared());
        let out = cap.text();
        assert!(out.contains("\"kind\":\"overloaded\""), "{out}");
        assert_eq!(shared.stats.overloaded.load(Ordering::Relaxed), 1);
        assert_eq!(shared.queue.depth(), 1, "refused request was not queued");
    }

    #[test]
    fn tenant_quota_refusal_is_typed_and_counted() {
        // Global room for 8 but only 1 per tenant.
        let (shared, _, _) = test_shared_with("quota", 8, None, 1, 0);
        let cap = Capture::default();
        let predict = r#"{"op":"predict","id":"p","rows":[[1.0,2.0]]}"#;
        handle_line(&shared, predict, &cap.shared());
        handle_line(&shared, predict, &cap.shared());
        let out = cap.text();
        assert!(out.contains("tenant quota full"), "{out}");
        assert!(out.contains("\"kind\":\"overloaded\""), "{out}");
        assert_eq!(shared.stats.quota_refusals.load(Ordering::Relaxed), 1);
        assert_eq!(shared.stats.overloaded.load(Ordering::Relaxed), 0);
        // Health surfaces the refusal counter.
        let cap2 = Capture::default();
        handle_line(&shared, r#"{"op":"health"}"#, &cap2.shared());
        assert!(
            cap2.text().contains("\"quota_refusals\":1"),
            "{}",
            cap2.text()
        );
    }

    #[test]
    fn health_reports_stats_and_drain_state() {
        let (shared, path, _) = test_shared("health", 4);
        let cap = Capture::default();
        handle_line(
            &shared,
            r#"{"op":"predict","rows":[[1.0,2.0]]}"#,
            &cap.shared(),
        );
        handle_line(&shared, r#"{"op":"health","id":"h1"}"#, &cap.shared());
        let out = cap.text();
        assert!(out.contains("\"ready\":true"), "{out}");
        assert!(out.contains("\"queue_depth\":1"), "{out}");
        assert!(out.contains("\"requests\":1"), "{out}");
        assert!(out.contains("\"models\":1"), "{out}");
        assert!(out.contains("\"versions\":1"), "{out}");
        assert!(
            out.contains(&format!(
                "\"model\":{}",
                serde_json::to_string(&path.display().to_string()).unwrap()
            )),
            "{out}"
        );

        shared.draining.store(true, Ordering::SeqCst);
        let cap2 = Capture::default();
        handle_line(&shared, r#"{"op":"ready"}"#, &cap2.shared());
        let out2 = cap2.text();
        assert!(out2.contains("\"ready\":false"), "{out2}");
        assert!(out2.contains("\"draining\":true"), "{out2}");

        // Draining daemons refuse new predictions explicitly.
        let cap3 = Capture::default();
        handle_line(
            &shared,
            r#"{"op":"predict","rows":[[1.0,2.0]]}"#,
            &cap3.shared(),
        );
        assert!(
            cap3.text().contains("\"kind\":\"shutting_down\""),
            "{}",
            cap3.text()
        );
    }

    #[test]
    fn poisoned_reload_degrades_but_keeps_serving() {
        let (shared, path, tree) = test_shared("reload", 8);
        let cap = Capture::default();

        std::fs::write(&path, "poisoned").unwrap();
        handle_line(&shared, r#"{"op":"reload","id":"g1"}"#, &cap.shared());
        let out = cap.text();
        assert!(out.contains("\"kind\":\"reload_failed\""), "{out}");
        assert!(out.contains("\"degraded\":true"), "{out}");

        // Predictions still flow, marked degraded, from last known good.
        let cap2 = Capture::default();
        handle_line(
            &shared,
            r#"{"op":"predict","id":"p1","rows":[[1.0,2.0]]}"#,
            &cap2.shared(),
        );
        shared.queue.close();
        worker_loop(&shared);
        let out2 = cap2.text();
        assert!(out2.contains("\"ok\":true"), "{out2}");
        assert!(out2.contains("\"degraded\":true"), "{out2}");
        assert_eq!(shared.stats.degraded_responses.load(Ordering::Relaxed), 1);

        // A good file heals it.
        tree.save(&path).unwrap();
        let cap3 = Capture::default();
        handle_line(&shared, r#"{"op":"reload","id":"g2"}"#, &cap3.shared());
        assert!(cap3.text().contains("\"ok\":true"), "{}", cap3.text());
        assert!(!super::super::lock_registry(&shared).degraded());
        assert_eq!(shared.stats.reloads.load(Ordering::Relaxed), 1);

        // Reload is a default-model op; named models go through promote.
        let cap4 = Capture::default();
        handle_line(
            &shared,
            r#"{"op":"reload","model":"alpha"}"#,
            &cap4.shared(),
        );
        assert!(
            cap4.text().contains("\"kind\":\"bad_request\""),
            "{}",
            cap4.text()
        );
    }

    #[test]
    fn registry_ops_route_through_one_session() {
        let (shared, path, tree) = test_shared("registry-ops", 8);
        let alt = path.with_file_name("alt.json");
        tree.save(&alt).unwrap();
        let poison = path.with_file_name("poison.json");
        std::fs::write(&poison, "{ nope").unwrap();
        let alt_json = serde_json::to_string(&alt.display().to_string()).unwrap();
        let poison_json = serde_json::to_string(&poison.display().to_string()).unwrap();

        let cap = Capture::default();
        // load a second tenant, predict against it by name, promote a new
        // version, roll it back, list the inventory.
        for (line, want) in [
            (
                format!(
                    r#"{{"op":"load","id":"l1","model":"alpha","version":"v1","path":{alt_json}}}"#
                ),
                "\"ok\":true",
            ),
            (
                r#"{"op":"predict","id":"p1","model":"alpha","rows":[[1.0,2.0]]}"#.to_string(),
                "",
            ),
            (
                format!(r#"{{"op":"promote","id":"m1","model":"alpha","path":{alt_json}}}"#),
                "\"ok\":true",
            ),
            (
                r#"{"op":"rollback","id":"b1","model":"alpha"}"#.to_string(),
                "\"ok\":true",
            ),
            (
                r#"{"op":"rollback","id":"b2","model":"alpha"}"#.to_string(),
                "\"kind\":\"rollback_failed\"",
            ),
            (r#"{"op":"list","id":"ls"}"#.to_string(), "\"models\":["),
            (
                r#"{"op":"predict","id":"p2","model":"ghost","rows":[[1.0,2.0]]}"#.to_string(),
                "\"kind\":\"unknown_model\"",
            ),
            (
                r#"{"op":"promote","id":"m2","model":"ghost","version":"v1"}"#.to_string(),
                "\"kind\":\"unknown_model\"",
            ),
            (
                r#"{"op":"promote","id":"m3","model":"alpha","version":"v9"}"#.to_string(),
                "\"kind\":\"unknown_model\"",
            ),
            (
                format!(r#"{{"op":"promote","id":"m4","model":"alpha","path":{poison_json}}}"#),
                "\"kind\":\"promote_failed\"",
            ),
        ] {
            let cap_line = Capture::default();
            handle_line(&shared, &line, &cap_line.shared());
            let out = cap_line.text();
            assert!(out.contains(want), "line {line}\nout {out}");
            cap.append(&out);
        }
        // After the poisoned promote, alpha serves degraded from its
        // last-known-good version.
        let cap2 = Capture::default();
        handle_line(
            &shared,
            r#"{"op":"predict","id":"p3","model":"alpha","rows":[[1.0,2.0]]}"#,
            &cap2.shared(),
        );
        shared.queue.close();
        worker_loop(&shared);
        let out = cap2.text();
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"degraded\":true"), "{out}");
        assert!(
            out.contains(&format!("{}", tree.predict(&[1.0, 2.0]))),
            "{out}"
        );
    }

    #[test]
    fn cache_hit_is_bit_identical_and_counted() {
        // Deep queue, cache enabled.
        let (shared, _, tree) = test_shared_with("cache", 8, None, 8, 64);
        let predict = r#"{"op":"predict","id":"c1","rows":[[1.0,2.0]]}"#;
        let cap = Capture::default();
        handle_line(&shared, predict, &cap.shared());
        assert_eq!(shared.stats.cache_misses.load(Ordering::Relaxed), 1);
        // Drain the queue so the worker memoizes the fresh result.
        while let Some(job) = shared.queue.try_pop() {
            super::super::answer(&shared, job);
        }
        let fresh = cap.text();
        assert!(fresh.contains("\"ok\":true"), "{fresh}");

        // Same rows again: answered from cache, no queueing, bit-identical.
        let cap2 = Capture::default();
        handle_line(&shared, predict, &cap2.shared());
        assert_eq!(shared.queue.depth(), 0, "hit must not queue");
        assert_eq!(shared.stats.cache_hits.load(Ordering::Relaxed), 1);
        let hit = cap2.text();
        let want = format!("{}", tree.predict(&[1.0, 2.0]));
        assert!(
            fresh.contains(&want) && hit.contains(&want),
            "{fresh} vs {hit}"
        );
        let fresh_preds = fresh.split("\"predictions\":").nth(1).unwrap();
        let hit_preds = hit.split("\"predictions\":").nth(1).unwrap();
        assert_eq!(
            fresh_preds.split(']').next(),
            hit_preds.split(']').next(),
            "cached predictions must be byte-identical to fresh ones"
        );
    }

    #[test]
    fn shutdown_op_acks_then_signals_drain() {
        let (shared, _, _) = test_shared("shutdown", 8);
        let cap = Capture::default();
        assert!(matches!(
            handle_line(&shared, r#"{"op":"shutdown","id":"bye"}"#, &cap.shared()),
            SessionControl::Shutdown
        ));
        assert!(cap.text().contains("\"id\":\"bye\""), "{}", cap.text());
    }

    #[test]
    fn save_op_persists_and_reports_failures() {
        let (shared, path, tree) = test_shared("save", 8);
        let copy = path.with_file_name("snapshot.json");
        let cap = Capture::default();
        let line = format!(
            r#"{{"op":"save","id":"s1","path":{}}}"#,
            serde_json::to_string(&copy.display().to_string()).unwrap()
        );
        handle_line(&shared, &line, &cap.shared());
        assert!(cap.text().contains("\"ok\":true"), "{}", cap.text());
        assert_eq!(ModelTree::load(&copy).unwrap().to_json(), tree.to_json());

        let cap2 = Capture::default();
        handle_line(
            &shared,
            r#"{"op":"save","path":"/nonexistent-dir/x/y.json"}"#,
            &cap2.shared(),
        );
        assert!(
            cap2.text().contains("\"kind\":\"save_failed\""),
            "{}",
            cap2.text()
        );
        // Saving an unknown model is typed, not a crash.
        let cap3 = Capture::default();
        handle_line(&shared, r#"{"op":"save","model":"ghost"}"#, &cap3.shared());
        assert!(
            cap3.text().contains("\"kind\":\"save_failed\""),
            "{}",
            cap3.text()
        );
    }

    // ---- Framing property tests (over SimStream) -----------------------
    //
    // The transport frames exactly like the protocol layer's
    // `read_bounded_line`, but these drive the full `run_session` path
    // over a `SimStream` with adversarial read faults — the mirror of the
    // protocol proptests at the transport level. The exactly-once and
    // oversize properties hold for both dispatchers the transport serves:
    // the daemon, and a fleet router in front of one in-process replica.
    mod framing_props {
        use super::*;
        use crate::serve::fleet::dst::engine_exchange;
        use crate::serve::fleet::{
            Fleet, FleetStats, ReplicaHealth, ReplicaLink, ReplicaSlot, BASE_COOLDOWN,
            FAIL_THRESHOLD, MAX_COOLDOWN, RETRY_CAP,
        };
        use crate::serve::transport::Dispatch;
        use mtperf_detsim::{Fault, SimStream};
        use proptest::prelude::*;

        /// Arbitrary line content: any byte value except newline (the
        /// frame delimiter); high bytes exercise lossy UTF-8 handling.
        fn line_strategy() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(
                (0u32..256).prop_map(|b| if b as u8 == b'\n' { b' ' } else { b as u8 }),
                0..200,
            )
        }

        /// A replica link answering through an in-process engine.
        struct EngineLink(Arc<Shared>);

        impl ReplicaLink for EngineLink {
            fn exchange(&mut self, line: &str, _wait: Duration) -> io::Result<String> {
                Ok(engine_exchange(&self.0, line))
            }

            fn reset(&mut self) {}
        }

        /// A fleet router, at the CLI defaults, in front of one engine
        /// replica.
        fn one_replica_fleet(replica: &Arc<Shared>) -> Fleet {
            Fleet {
                replicas: vec![ReplicaSlot::new(
                    "r0".to_string(),
                    Box::new(EngineLink(Arc::clone(replica))),
                    ReplicaHealth::new(FAIL_THRESHOLD, BASE_COOLDOWN, MAX_COOLDOWN),
                )],
                hedge_after: Duration::from_millis(50),
                retry_attempts: 3,
                retry_base: Duration::from_millis(2),
                retry_cap: RETRY_CAP,
                stats: FleetStats::default(),
            }
        }

        /// Runs one session of `dispatcher` over `stream`; returns the
        /// bytes written back.
        fn drive(dispatcher: &dyn Dispatch, stream: &SimStream) -> String {
            let (reader, writer_half) = stream.split();
            let writer: SharedWriter = Arc::new(Mutex::new(Box::new(writer_half)));
            run_session(dispatcher, std::io::BufReader::new(reader), writer);
            String::from_utf8_lossy(&stream.output()).into_owned()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every non-empty line — however the reads are split or
            /// interrupted — produces exactly one response on the issuing
            /// connection, and the session survives to answer a final
            /// health probe.
            #[test]
            fn every_line_gets_exactly_one_response(
                lines in proptest::collection::vec(line_strategy(), 0..12),
                short_reads in proptest::collection::vec(1usize..16, 0..8),
                interrupts in 0usize..4,
            ) {
                let (shared, _, _) = test_shared("prop-framing", 64);
                let (replica, _, _) = test_shared("prop-framing-replica", 64);
                let fleet = one_replica_fleet(&replica);
                let expected = lines
                    .iter()
                    .filter(|l| !String::from_utf8_lossy(l).trim().is_empty())
                    .count();
                for dispatcher in [&*shared as &dyn Dispatch, &fleet] {
                    let stream = SimStream::new();
                    for chunk in &short_reads {
                        stream.script_read_fault(Fault::ShortRead(*chunk));
                    }
                    for _ in 0..interrupts {
                        stream.script_read_fault(Fault::InterruptRead);
                    }
                    for line in &lines {
                        stream.push_input(line);
                        stream.push_input(b"\n");
                    }
                    stream.push_input(b"{\"op\":\"health\",\"id\":\"fin\"}\n");
                    stream.close_input();
                    let out = drive(dispatcher, &stream);
                    prop_assert_eq!(out.lines().count(), expected + 1, "{}", out);
                    prop_assert!(out.contains("\"id\":\"fin\""), "{}", out);
                }
                // Random bytes must never kill a daemon or queue garbage.
                prop_assert_eq!(shared.queue.depth(), 0);
                prop_assert_eq!(replica.queue.depth(), 0);
            }

            /// An over-limit line split across arbitrarily-sized reads is
            /// refused as one typed bad_request and the connection keeps
            /// serving.
            #[test]
            fn oversized_lines_fail_typed_with_connection_surviving(
                extra in 1usize..4096,
                chunk in 1usize..(1 << 20),
            ) {
                let (shared, _, _) = test_shared("prop-oversize", 64);
                let (replica, _, _) = test_shared("prop-oversize-replica", 64);
                let fleet = one_replica_fleet(&replica);
                let total = protocol::MAX_LINE_BYTES + extra;
                for dispatcher in [&*shared as &dyn Dispatch, &fleet] {
                    let stream = SimStream::new();
                    // Split the giant line into `chunk`-sized reads.
                    let mut remaining = total;
                    while remaining > 0 {
                        stream.script_read_fault(Fault::ShortRead(chunk));
                        remaining = remaining.saturating_sub(chunk);
                    }
                    stream.push_input(&vec![b'x'; total]);
                    stream.push_input(b"\n{\"op\":\"health\",\"id\":\"after\"}\n");
                    stream.close_input();
                    let out = drive(dispatcher, &stream);
                    prop_assert_eq!(
                        out.matches("\"kind\":\"bad_request\"").count(), 1, "{}", out
                    );
                    prop_assert!(
                        out.contains(&format!(
                            "request line exceeds {} bytes",
                            protocol::MAX_LINE_BYTES
                        )),
                        "{}", out
                    );
                    prop_assert!(out.contains("\"id\":\"after\""), "{}", out);
                }
            }

            /// A request split byte-by-byte over the wire reassembles
            /// exactly: the predict answers with the same predictions as
            /// an unfragmented send.
            #[test]
            fn fragmented_requests_reassemble_exactly(
                a in -1e6f64..1e6, b in -1e6f64..1e6,
                chunk in 1usize..8,
            ) {
                let (shared, _, tree) = test_shared("prop-reassemble", 64);
                let line = format!(
                    "{{\"op\":\"predict\",\"id\":\"f\",\"rows\":[[{a},{b}]]}}\n"
                );
                let stream = SimStream::new();
                for _ in 0..(line.len() / chunk + 1) {
                    stream.script_read_fault(Fault::ShortRead(chunk));
                }
                stream.push_input(line.as_bytes());
                stream.close_input();
                let (reader, writer_half) = stream.split();
                let writer: SharedWriter = Arc::new(Mutex::new(Box::new(writer_half)));
                run_session(&*shared, std::io::BufReader::new(reader), writer);
                while let Some(job) = shared.queue.try_pop() {
                    super::super::super::answer(&shared, job);
                }
                let out = String::from_utf8_lossy(&stream.output()).into_owned();
                prop_assert!(out.contains("\"ok\":true"), "{}", out);
                let want = format!("{}", tree.predict(&[a, b]));
                prop_assert!(out.contains(&want), "{} missing {}", out, want);
            }
        }
    }
}
