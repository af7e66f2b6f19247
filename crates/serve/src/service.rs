//! The per-request executor behind the daemon's worker loop.
//!
//! [`ExplainService::execute_tapped`] serves one request: validate it,
//! reserve its ε, run the staged engine, and build the response. It never
//! panics on bad request *data* — lookup, validation, budget, and pipeline
//! failures all come back as `"ok": false` responses. Concurrency,
//! admission, and panic isolation belong to the caller: the resident
//! [`Daemon`](crate::daemon::Daemon) is the one engine that runs requests
//! concurrently, for every transport (request file, stdin, socket).
//!
//! Privacy ordering: a request's **entire** ε is reserved on the dataset's
//! [`SharedAccountant`](dpx_dp::SharedAccountant) in one atomic `try_spend`
//! *before* any mechanism runs. There is no check-then-spend window for two
//! workers to race through, so the per-dataset cap holds under any
//! interleaving. The reservation is deliberately not refunded if the pipeline
//! later fails — over-counting spend is privacy-safe, refunds after a partial
//! release are not.

pub use crate::registry::derive_labels;
use crate::registry::DatasetRegistry;
use crate::request::{
    reject_reason, ExplainRequest, ExplainResponse, RequestOp, ServedExplanation, WireReject,
};
use dpclustx::engine::{CollectingObserver, ExplainContext, ExplainEngine, StageEvent};
use dpx_dp::budget::Epsilon;
use dpx_dp::histogram::GeometricHistogram;
use dpx_dp::DpError;
use dpx_runtime::faultpoint::{self, SERVICE_POST_SPEND, SERVICE_PRE_SPEND};
use dpx_runtime::CancelToken;
use std::collections::HashMap;
use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

/// Whether a trimmed request line carries no request: blank lines and `#`
/// comments are skipped by every request reader.
pub(crate) fn is_blank_or_comment(trimmed: &str) -> bool {
    trimmed.is_empty() || trimmed.starts_with('#')
}

/// Reads a whole JSONL request stream **leniently**: hostile lines reject
/// individually instead of failing the read, and the read is byte-level so
/// even a line that is not valid UTF-8 becomes a typed [`WireReject`]
/// (`reader.lines()` would abort the whole stream with an `io::Error`
/// there). Blank lines and `#` comments are skipped; real I/O failures
/// still abort.
///
/// Classification per line, in order:
/// * invalid UTF-8, malformed JSON, or ill-typed fields → reject with class
///   `bad_line` (id echoed when one was parseable);
/// * a decodable request whose ε split is non-finite or negative → reject
///   with class `invalid_epsilon`, id and dataset echoed;
/// * a decodable request re-using an id claimed earlier in the stream → the
///   **later** line rejects with class `duplicate_id` (the first claim
///   executes; a replayed id must never execute twice);
/// * everything else → an [`ExplainRequest`].
///
/// Every input line is accounted for in exactly one of the two returned
/// vectors — a hostile line is never silently dropped.
pub fn parse_requests_lenient<R: BufRead>(
    mut reader: R,
) -> std::io::Result<(Vec<ExplainRequest>, Vec<WireReject>)> {
    let mut requests = Vec::new();
    let mut rejects = Vec::new();
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let mut raw = Vec::new();
    let mut line_no = 0usize;
    loop {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        line_no += 1;
        if raw.last() == Some(&b'\n') {
            raw.pop();
            if raw.last() == Some(&b'\r') {
                raw.pop();
            }
        }
        let Ok(text) = std::str::from_utf8(&raw) else {
            rejects.push(WireReject {
                line: line_no,
                ..WireReject::unparseable("request line is not valid UTF-8")
            });
            continue;
        };
        let trimmed = text.trim();
        if is_blank_or_comment(trimmed) {
            continue;
        }
        match ExplainRequest::classify_json_line(trimmed) {
            Ok(req) => {
                if let Some(first) = seen.insert(req.id, line_no) {
                    seen.insert(req.id, first); // the first claim keeps the id
                    rejects.push(WireReject {
                        line: line_no,
                        id: Some(req.id),
                        dataset: Some(req.dataset),
                        message: format!(
                            "duplicate request id {} (first used on line {first})",
                            req.id
                        ),
                        reason: reject_reason::DUPLICATE_ID,
                    });
                } else {
                    requests.push(req);
                }
            }
            Err(mut reject) => {
                reject.line = line_no;
                rejects.push(reject);
            }
        }
    }
    Ok((requests, rejects))
}

/// Machine-readable failure classes attached to error responses.
pub mod reason {
    /// The request's deadline expired at a stage boundary.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The dataset's ε cap could not absorb the request.
    pub const BUDGET_EXCEEDED: &str = "budget_exceeded";
    /// The durable ledger could not persist the grant.
    pub const LEDGER_WRITE: &str = "ledger_write";
    /// The daemon has stopped admission (shutdown requested / transport
    /// closed); the request was turned away before queuing, at zero ε.
    pub const DRAINING: &str = "draining";
    /// A daemon control op (`stats` / `shutdown`) reached
    /// [`ExplainService`](super::ExplainService) directly, which has no
    /// daemon state to answer it with.
    pub const UNSUPPORTED_OP: &str = "unsupported_op";
}

/// A typed per-request failure: the human-readable message plus the optional
/// machine-readable class (see [`reason`]).
struct ServeFailure {
    message: String,
    reason: Option<String>,
}

impl ServeFailure {
    fn plain(message: impl Into<String>) -> Self {
        ServeFailure {
            message: message.into(),
            reason: None,
        }
    }
}

/// Requests with this seed panic after their grant and their pipeline run
/// (counts cached, noise released), in this crate's unit tests only: the
/// daemon's unwind guard is tested against a real mid-request panic, with no
/// option or config field to arm it.
#[cfg(test)]
pub(crate) const PANIC_AFTER_GRANT_SEED: u64 = 0xDEAD_5EED;

/// The explanation service: the registry requests are served from.
#[derive(Debug)]
pub struct ExplainService {
    registry: Arc<DatasetRegistry>,
}

impl ExplainService {
    /// A service over `registry`.
    pub fn new(registry: Arc<DatasetRegistry>) -> Self {
        ExplainService { registry }
    }

    /// The registry this service serves from.
    pub fn registry(&self) -> &DatasetRegistry {
        &self.registry
    }

    /// Serves one request that holds no recovered grant, untapped.
    pub fn execute(&self, request: &ExplainRequest) -> ExplainResponse {
        self.execute_tapped(request, false, None)
    }

    /// Serves one request with the geometric histogram mechanism. Never
    /// panics on bad request *data* — lookup, validation, budget, and
    /// pipeline failures all come back as error responses.
    ///
    /// The request's own `deadline_ms` bounds it (the daemon folds its
    /// configured default in before calling). `granted` marks an id that
    /// already holds a durable grant from a recovered ledger (resume): the
    /// spend is skipped — re-spending would double-charge the cap — and the
    /// pipeline, a pure function of the request, reproduces the crashed
    /// run's exact response.
    ///
    /// The optional **stage tap** is handed every [`StageEvent`] the
    /// pipeline reports for this request, in stage order, before the
    /// response is built. The daemon feeds its rolling metrics registry
    /// through this seam; the response bytes are identical with or without
    /// a tap.
    pub fn execute_tapped(
        &self,
        request: &ExplainRequest,
        granted: bool,
        tap: Option<&(dyn Fn(&StageEvent) + Sync)>,
    ) -> ExplainResponse {
        if request.is_control() {
            // Control ops only make sense against a resident daemon; answer
            // them with a typed error rather than silently treating them as
            // explains.
            let op = match request.op {
                RequestOp::Stats => "stats",
                _ => "shutdown",
            };
            return ExplainResponse::error(
                request.id,
                format!("op '{op}' is only served by the resident daemon (serve-daemon)"),
            )
            .with_reason(reason::UNSUPPORTED_OP);
        }
        if let RequestOp::Append { rows } = &request.op {
            // Appends touch no private mechanism: they validate the rows,
            // grow the dataset, and refresh cached counts incrementally.
            // No ε is spent and no deadline applies — the work is O(|delta|)
            // public bookkeeping, so re-running an append (e.g. on resume)
            // is always free and deterministic.
            return match self.registry.append_rows(&request.dataset, rows) {
                Ok(summary) => ExplainResponse::appended(request.id, summary),
                Err(message) => ExplainResponse::error(request.id, message),
            };
        }
        match self.try_execute(request, granted, tap) {
            Ok(served) => ExplainResponse::success(request.id, served),
            Err(failure) => {
                let mut response = ExplainResponse::error(request.id, failure.message);
                let accounting_failure = failure.reason.is_some();
                if let Some(reason) = failure.reason {
                    response = response.with_reason(reason);
                }
                // Headroom is only attached where the failure is about the
                // budget or its reservation (a typed reason: rejection,
                // ledger write, deadline with ε kept) — those lines are
                // admission-order dependent by nature and documented as
                // such. Plain validation errors never touch the accountant,
                // so attaching a live headroom reading there would leak
                // scheduling into an otherwise deterministic stream.
                if accounting_failure {
                    if let Some(remaining) = self
                        .registry
                        .get(&request.dataset)
                        .and_then(|entry| entry.accountant().remaining())
                    {
                        response = response.with_eps_remaining(remaining);
                    }
                }
                response
            }
        }
    }

    fn try_execute(
        &self,
        request: &ExplainRequest,
        granted: bool,
        tap: Option<&(dyn Fn(&StageEvent) + Sync)>,
    ) -> Result<ServedExplanation, ServeFailure> {
        let entry = self
            .registry
            .get(&request.dataset)
            .ok_or_else(|| ServeFailure::plain(format!("unknown dataset '{}'", request.dataset)))?;
        if request.n_clusters == 0 {
            return Err(ServeFailure::plain("n_clusters must be positive"));
        }
        if request.cluster_by >= entry.data().schema().arity() {
            return Err(ServeFailure::plain(format!(
                "cluster_by {} out of range (dataset has {} attributes)",
                request.cluster_by,
                entry.data().schema().arity()
            )));
        }
        let total = Epsilon::new(request.total_epsilon())
            .map_err(|e| ServeFailure::plain(e.to_string()))?;
        // The deadline token is minted BEFORE the spend so that it bounds the
        // whole serving path: time queued behind a group-commit batch, time
        // blocked on another request's in-flight counts build, and the
        // pipeline's stage boundaries. A request whose deadline expires
        // before its grant commits answers `deadline_exceeded` with NO ε
        // spent; once the grant is durable the ε stays spent, refund-free.
        let cancel = request
            .deadline_ms
            .map(|ms| CancelToken::with_deadline(Duration::from_millis(ms)));
        if granted {
            // This id already holds a durable grant from a crashed run: its ε
            // is reserved, so spending again would double-charge the cap.
            // Re-execution is free — the pipeline is a pure function of the
            // request, so the response equals the one the crash destroyed.
        } else {
            faultpoint::hit(SERVICE_PRE_SPEND);
            // The whole request budget is reserved in ONE atomic operation
            // before any private computation starts (durably so when the
            // dataset's accountant has a ledger attached). If the cap cannot
            // absorb it, the request is rejected with nothing recorded.
            entry
                .accountant()
                .try_spend_grant_cancellable(
                    request.id,
                    format!("request/{}", request.id),
                    total,
                    cancel.as_ref(),
                )
                .map_err(|e| match e {
                    DpError::BudgetExceeded { .. } => ServeFailure {
                        message: format!("budget rejected: {e}"),
                        reason: Some(reason::BUDGET_EXCEEDED.to_string()),
                    },
                    DpError::LedgerWrite { .. } => ServeFailure {
                        message: e.to_string(),
                        reason: Some(reason::LEDGER_WRITE.to_string()),
                    },
                    // Cancelled pre-spend (or withdrawn from the commit
                    // queue): nothing was appended and nothing charged, so
                    // this failure costs the caller no ε.
                    DpError::Cancelled { ref reason } => ServeFailure {
                        reason: Some(reason.clone()),
                        message: e.to_string(),
                    },
                    other => ServeFailure::plain(format!("budget rejected: {other}")),
                })?;
            faultpoint::hit(SERVICE_POST_SPEND);
        }
        // Record the clustering on the entry (appends refresh exactly the
        // clusterings that have been served) and open the context with the
        // entry's precomputed fingerprint: requests never re-scan the data
        // for a cache key, which matters once datasets grow by appends.
        entry.note_clustering(request.cluster_by, request.n_clusters);
        let labels = derive_labels(entry.data(), request.cluster_by, request.n_clusters);
        let mut ctx = ExplainContext::with_fingerprint(
            entry.data_arc(),
            entry.fingerprint(),
            request.seed,
            entry.cache(),
        );
        let mut engine =
            ExplainEngine::new(request.config()).with_stage2_kernel(request.stage2_kernel);
        if let Some(token) = cancel {
            engine = engine.with_cancel(token);
        }
        let mut observer = CollectingObserver::new();
        let outcome = engine
            .explain_with_mechanism(
                &mut ctx,
                &labels,
                request.n_clusters,
                &GeometricHistogram,
                &mut observer,
            )
            .map_err(|e| match e {
                // The reserved ε is deliberately NOT refunded: the stages
                // that ran before the boundary poll have already released
                // noise, and a refund would turn the cap into a function of
                // wall-clock timing.
                DpError::Cancelled { ref reason } => ServeFailure {
                    reason: Some(reason.clone()),
                    message: e.to_string(),
                },
                other => ServeFailure::plain(other.to_string()),
            })?;
        #[cfg(test)]
        if request.seed == PANIC_AFTER_GRANT_SEED {
            panic!("injected fault after the grant of request {}", request.id);
        }
        let events = observer.events();
        if let Some(tap) = tap {
            for event in events {
                tap(event);
            }
        }
        Ok(ServedExplanation::new(
            &outcome.explanation,
            outcome.accountant.spent(),
            events,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpx_data::synth::diabetes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn registry_with(name: &str, cap: Option<f64>) -> Arc<DatasetRegistry> {
        let mut rng = StdRng::seed_from_u64(11);
        let data = Arc::new(diabetes::spec(2).generate(600, &mut rng).data);
        let registry = Arc::new(DatasetRegistry::new());
        registry.register(name, data, cap.map(|c| Epsilon::new(c).unwrap()));
        registry
    }

    #[test]
    fn serves_a_minimal_request() {
        let service = ExplainService::new(registry_with("default", None));
        let response = service.execute(&ExplainRequest::new(1));
        let served = response.explanation().expect("request served").clone();
        assert_eq!(served.attributes.len(), 2);
        assert_eq!(served.stages.len(), 4);
        assert!((served.eps_spent - 0.3).abs() < 1e-9);
        assert_eq!(served.clusters.len(), 2);
    }

    #[test]
    fn unknown_dataset_and_bad_fields_become_error_responses() {
        let service = ExplainService::new(registry_with("default", None));
        let mut req = ExplainRequest::new(1);
        req.dataset = "elsewhere".to_string();
        let response = service.execute(&req);
        assert!(response.outcome.unwrap_err().contains("unknown dataset"));

        let mut req = ExplainRequest::new(2);
        req.cluster_by = 999;
        assert!(service
            .execute(&req)
            .outcome
            .unwrap_err()
            .contains("out of range"));

        let mut req = ExplainRequest::new(3);
        req.n_clusters = 0;
        assert!(service
            .execute(&req)
            .outcome
            .unwrap_err()
            .contains("positive"));

        let mut req = ExplainRequest::new(4);
        req.eps_hist = None; // selection-only config cannot drive the full pipeline
        let err = service.execute(&req).outcome.unwrap_err();
        assert!(err.contains("epsilon"), "got: {err}");
    }

    #[test]
    fn budget_cap_rejects_with_nothing_recorded() {
        let registry = registry_with("default", Some(0.5));
        let service = ExplainService::new(Arc::clone(&registry));
        let entry = registry.get("default").unwrap();
        // 0.3 each: first fits, second would breach 0.5.
        assert!(service.execute(&ExplainRequest::new(1)).is_ok());
        let rejected = service.execute(&ExplainRequest::new(2));
        assert!(rejected.outcome.unwrap_err().contains("budget rejected"));
        assert_eq!(entry.accountant().num_charges(), 1);
        assert!(entry.accountant().spent() <= 0.5 + 1e-9);
    }

    #[test]
    fn zero_deadline_times_out_before_spending_any_epsilon() {
        let registry = registry_with("default", Some(1.0));
        let service = ExplainService::new(Arc::clone(&registry));
        let mut req = ExplainRequest::new(1);
        req.deadline_ms = Some(0);
        let response = service.execute(&req);
        assert_eq!(response.reason.as_deref(), Some("deadline_exceeded"));
        let err = response.outcome.unwrap_err();
        assert!(err.contains("deadline_exceeded"), "{err}");
        // The token is checked before the grant commits: a request that is
        // already over its deadline is turned away with NO ε spent — the cap
        // keeps its full headroom for requests that can still be served.
        let entry = registry.get("default").unwrap();
        assert_eq!(entry.accountant().spent(), 0.0);
        assert_eq!(entry.accountant().num_charges(), 0);
        assert!((response.eps_remaining.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_rejection_carries_reason_and_headroom() {
        let registry = registry_with("default", Some(0.5));
        let service = ExplainService::new(Arc::clone(&registry));
        assert!(service.execute(&ExplainRequest::new(1)).is_ok());
        let rejected = service.execute(&ExplainRequest::new(2));
        assert_eq!(rejected.reason.as_deref(), Some("budget_exceeded"));
        assert!((rejected.eps_remaining.unwrap() - 0.2).abs() < 1e-12);
        // Uncapped datasets attach no headroom (it would be meaningless).
        let open = ExplainService::new(registry_with("default", None));
        let mut req = ExplainRequest::new(3);
        req.n_clusters = 0;
        assert_eq!(open.execute(&req).eps_remaining, None);
    }

    #[test]
    fn granted_requests_skip_the_spend_and_reproduce_the_response() {
        let registry = registry_with("default", Some(0.3));
        let service = ExplainService::new(Arc::clone(&registry));
        let baseline = service.execute(&ExplainRequest::new(7)).to_json_line();
        // The cap is now exhausted; a fresh spend for id 7 would be rejected,
        // but a granted id skips the spend and reproduces the response.
        let replay = service
            .execute_tapped(&ExplainRequest::new(7), true, None)
            .to_json_line();
        assert_eq!(replay, baseline);
        let entry = registry.get("default").unwrap();
        assert_eq!(entry.accountant().num_charges(), 1, "no second charge");
    }

    #[test]
    fn derive_labels_is_total_and_bounded() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = diabetes::spec(2).generate(100, &mut rng).data;
        let labels = derive_labels(&data, 1, 3);
        assert_eq!(labels.len(), 100);
        assert!(labels.iter().all(|&l| l < 3));
    }

    fn append_request(id: u64, rows: Vec<Vec<u32>>) -> ExplainRequest {
        let mut req = ExplainRequest::new(id);
        req.op = RequestOp::Append { rows };
        req
    }

    fn sample_rows(registry: &DatasetRegistry, n: usize) -> Vec<Vec<u32>> {
        let entry = registry.get("default").unwrap();
        let data = entry.data();
        (0..n)
            .map(|r| {
                (0..data.schema().arity())
                    .map(|a| data.column(a)[r])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn append_requests_grow_the_dataset_and_spend_no_epsilon() {
        let registry = registry_with("default", Some(0.3));
        let service = ExplainService::new(Arc::clone(&registry));
        let rows = sample_rows(&registry, 3);
        let response = service.execute(&append_request(1, rows));
        let summary = *response.append().expect("append served");
        assert_eq!(summary.appended, 3);
        assert_eq!(summary.total_rows, 603);
        assert_eq!(registry.get("default").unwrap().data().n_rows(), 603);
        assert_eq!(
            registry.get("default").unwrap().accountant().num_charges(),
            0,
            "appends are free"
        );
        // Bad rows and unknown datasets come back as error responses.
        let response = service.execute(&append_request(2, vec![vec![1]]));
        let err = response.outcome.unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let mut req = append_request(3, vec![]);
        req.dataset = "elsewhere".to_string();
        let response = service.execute(&req);
        assert!(response.outcome.unwrap_err().contains("unknown dataset"));
    }

    #[test]
    fn explains_after_an_append_observe_the_grown_dataset() {
        let registry = registry_with("default", None);
        let service = ExplainService::new(Arc::clone(&registry));
        let rows = sample_rows(&registry, 7);
        let before = service.execute(&ExplainRequest::new(2));
        let appended = service.execute(&append_request(1, rows));
        assert_eq!(appended.append().unwrap().total_rows, 607);
        let after = service.execute(&ExplainRequest::new(2));
        assert!(before.is_ok() && after.is_ok());
        // The same request against the grown dataset counts 607 rows, so
        // its released stage metrics differ from the pre-append answer.
        assert_ne!(before.to_json_line(), after.to_json_line());
        assert_eq!(registry.get("default").unwrap().data().n_rows(), 607);
    }
}
