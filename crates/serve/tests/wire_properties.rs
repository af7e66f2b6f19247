//! Property tests for the JSONL wire boundary: hostile input must always
//! come back as a **typed** reject — never a panic, never a silent drop.
//!
//! The wire parser is the first thing adversarial bytes touch, so its
//! contract is checked over generated input families rather than a fixed
//! list: arbitrary bytes (including invalid UTF-8), truncations of valid
//! request lines, duplicate JSON keys, duplicate request ids, hostile ε
//! values, and keys a line's op does not accept. Each family asserts the same conservation law — every input line
//! is answered by exactly one parsed request or one classified reject.
//!
//! Failures replay via the vendored stub's `PROPTEST_SEED` environment
//! variable (printed on failure).

use dpx_serve::{parse_requests_lenient, reject_reason, ExplainRequest, RequestOp};
use proptest::prelude::*;

/// Runs the lenient parser over raw bytes and returns (requests, rejects).
fn classify_bytes(bytes: &[u8]) -> (usize, usize) {
    let (requests, rejects) = parse_requests_lenient(bytes).expect("in-memory read cannot fail");
    (requests.len(), rejects.len())
}

/// Lines that are blank or comments after trimming — the only inputs the
/// parser may skip without answering.
fn is_skippable(line: &[u8]) -> bool {
    match std::str::from_utf8(line) {
        Ok(text) => {
            let trimmed = text.trim();
            trimmed.is_empty() || trimmed.starts_with('#')
        }
        Err(_) => false,
    }
}

proptest! {
    /// Arbitrary bytes: the parser never panics, never errors the stream
    /// (I/O aside), and accounts for every non-skippable line.
    #[test]
    fn arbitrary_bytes_never_panic_and_never_drop_lines(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        // split() yields a trailing empty slice when the input ends in \n;
        // read_until treats that as end-of-stream, not a line.
        let accountable = lines
            .iter()
            .take(lines.len().saturating_sub(usize::from(bytes.last() == Some(&b'\n') || bytes.is_empty())))
            .filter(|l| !is_skippable(l))
            .count();
        let (requests, rejects) = classify_bytes(&bytes);
        prop_assert_eq!(
            requests + rejects,
            accountable,
            "every hostile line must be answered, never silently dropped"
        );
    }

    /// Invalid UTF-8 anywhere in a line classifies that line as a typed
    /// `bad_line` reject with its 1-based line number.
    #[test]
    fn non_utf8_lines_become_typed_rejects(
        prefix in "[a-z ]{0,8}",
        bad in 0x80u8..0xC0,
        suffix in "[a-z ]{0,8}",
    ) {
        let mut bytes = b"{\"id\": 1}\n".to_vec();
        bytes.extend_from_slice(prefix.as_bytes());
        bytes.push(bad); // a lone continuation byte is never valid UTF-8
        bytes.extend_from_slice(suffix.as_bytes());
        bytes.push(b'\n');
        let (requests, rejects) = parse_requests_lenient(&bytes[..]).unwrap();
        prop_assert_eq!(requests.len(), 1);
        prop_assert_eq!(rejects.len(), 1);
        prop_assert_eq!(rejects[0].reason, reject_reason::BAD_LINE);
        prop_assert_eq!(rejects[0].line, 2);
        prop_assert!(rejects[0].message.contains("UTF-8"), "{}", rejects[0].message);
    }

    /// Every truncation of a valid request line either still parses or
    /// classifies as a reject — the parser never panics on a cut-off line
    /// and never drops it.
    #[test]
    fn truncated_requests_classify_without_panicking(
        id in 0u64..1_000_000,
        seed in any::<u64>(),
        cut in 0usize..200,
    ) {
        let mut req = ExplainRequest::new(id);
        req.seed = seed;
        let line = req.to_json_line();
        let cut = cut.min(line.len());
        let truncated = &line[..cut];
        if truncated.trim().is_empty() {
            return Ok(()); // a skippable stub, not an accountable line
        }
        let classified = ExplainRequest::classify_json_line(truncated);
        if cut == line.len() {
            prop_assert!(classified.is_ok(), "the untruncated line must parse");
        } else if let Err(reject) = classified {
            prop_assert!(!reject.message.is_empty());
            prop_assert_eq!(reject.reason, reject_reason::BAD_LINE);
        }
    }

    /// Duplicate JSON keys inside one object: the parser's documented
    /// first-occurrence rule decides, deterministically, so a smuggled
    /// second `id` can never make the response echo a different id than
    /// the one that was validated.
    #[test]
    fn duplicate_json_keys_resolve_to_the_first_occurrence(
        first in 0u64..1_000_000,
        second in 0u64..1_000_000,
    ) {
        let line = format!("{{\"id\": {first}, \"id\": {second}}}");
        let req = ExplainRequest::classify_json_line(&line).expect("object parses");
        prop_assert_eq!(req.id, first);
        let line = format!("{{\"id\": 1, \"seed\": {first}, \"seed\": {second}}}");
        let req = ExplainRequest::classify_json_line(&line).expect("object parses");
        prop_assert_eq!(req.seed, first);
    }

    /// A re-used request id rejects the LATER line as `duplicate_id`,
    /// echoing the id and both line numbers; the first claim still parses.
    #[test]
    fn duplicate_ids_reject_the_replay_and_keep_the_original(
        id in 0u64..1_000_000,
        gap in 0usize..4,
    ) {
        let mut text = format!("{{\"id\": {id}}}\n");
        for g in 0..gap {
            text.push_str(&format!("{{\"id\": {}}}\n", 2_000_000 + g as u64));
        }
        text.push_str(&format!("{{\"id\": {id}, \"seed\": 9}}\n"));
        let (requests, rejects) = parse_requests_lenient(text.as_bytes()).unwrap();
        prop_assert_eq!(requests.len(), gap + 1);
        prop_assert_eq!(requests[0].id, id);
        prop_assert_eq!(rejects.len(), 1);
        prop_assert_eq!(rejects[0].reason, reject_reason::DUPLICATE_ID);
        prop_assert_eq!(rejects[0].id, Some(id));
        prop_assert_eq!(rejects[0].line, gap + 2);
        prop_assert!(rejects[0].message.contains("line 1"), "{}", rejects[0].message);
    }

    /// Negative ε on any stage classifies as `invalid_epsilon`, with the id
    /// and dataset echoed so the reject can be answered on the wire.
    #[test]
    fn hostile_epsilon_is_typed_and_echoes_identity(
        id in 0u64..1_000_000,
        eps in -1e6f64..-1e-9,
        stage in 0usize..3,
    ) {
        let field = ["eps_cand", "eps_comb", "eps_hist"][stage];
        let line = format!(
            "{{\"id\": {id}, \"dataset\": \"tenants\", \"{field}\": {eps}}}"
        );
        let reject = ExplainRequest::classify_json_line(&line).unwrap_err();
        prop_assert_eq!(reject.reason, reject_reason::INVALID_EPSILON);
        prop_assert_eq!(reject.id, Some(id));
        prop_assert_eq!(reject.dataset.as_deref(), Some("tenants"));
        prop_assert!(reject.message.contains(field), "{}", reject.message);
    }

    /// A key outside the line's op table — a typo of a real field, or a
    /// real field on the wrong op — is a typed `bad_line` reject that names
    /// the key and echoes the id. It never becomes a request, so it never
    /// reaches an accountant and spends nothing.
    #[test]
    fn unknown_keys_are_typed_rejects_naming_the_key(
        id in 0u64..1_000_000,
        op in 0usize..4,
        key in 0usize..6,
    ) {
        let (op, base) = [
            ("explain", String::new()),
            ("append", ", \"rows\": [[0, 1]]".to_string()),
            ("stats", String::new()),
            ("shutdown", String::new()),
        ][op].clone();
        // Each key is foreign to every op except where noted: `seed` belongs
        // to explain only, `rows` to append only.
        let key = ["eps_cnad", "epsilon_comb", "Seed", "tenant", "seed", "rows"][key];
        if (op == "explain" && key == "seed") || (op == "append" && key == "rows") {
            return Ok(());
        }
        let line = format!("{{\"id\": {id}, \"op\": \"{op}\"{base}, \"{key}\": 1}}");
        let reject = ExplainRequest::classify_json_line(&line).unwrap_err();
        prop_assert_eq!(reject.reason, reject_reason::BAD_LINE);
        prop_assert_eq!(reject.id, Some(id));
        prop_assert!(reject.message.contains(&format!("'{key}'")), "{}", reject.message);
    }

    /// Round trip: every request the wire can encode, the wire classifies
    /// back as the same request (the classifier is total on its own image).
    /// Ids and seeds range over the wire's exactly-representable integers —
    /// JSON numbers are f64, so 2^53 is the largest id the format can echo
    /// faithfully.
    #[test]
    fn encoded_requests_always_classify_back(
        id in 0u64..(1 << 53),
        seed in 0u64..(1 << 53),
        n_clusters in 1usize..9,
        k in 1usize..6,
        eps in 1e-6f64..10.0,
        consistency in any::<bool>(),
    ) {
        let mut req = ExplainRequest::new(id);
        req.seed = seed;
        req.n_clusters = n_clusters;
        req.k = k;
        req.eps_cand = eps;
        req.consistency = consistency;
        let reparsed = ExplainRequest::classify_json_line(&req.to_json_line())
            .expect("the encoder's image must classify");
        prop_assert_eq!(reparsed, req);
        // Every op's encoding stays inside its own key table.
        for op in [
            RequestOp::Append { rows: vec![vec![0, 1]] },
            RequestOp::Stats,
            RequestOp::Shutdown,
        ] {
            let mut req = ExplainRequest::new(id);
            req.op = op;
            let reparsed = ExplainRequest::classify_json_line(&req.to_json_line())
                .expect("the encoder's image must classify");
            prop_assert_eq!(reparsed.op, req.op);
        }
    }
}

/// A fixed-vector sweep of hostile shapes the generators cannot hit
/// reliably: each must classify as a reject with the right class, id
/// echo, and line number — and the stream must keep going afterwards.
#[test]
fn hostile_line_zoo_classifies_every_shape() {
    let zoo: &[(&str, &str, Option<u64>)] = &[
        ("not json at all", reject_reason::BAD_LINE, None),
        // A truncated object dies in the JSON parser itself, before any
        // field can be captured — no id echo is possible.
        ("{\"id\": 1", reject_reason::BAD_LINE, None),
        ("[1, 2, 3]", reject_reason::BAD_LINE, None),
        ("{\"seed\": 3}", reject_reason::BAD_LINE, None),
        ("{\"id\": -4}", reject_reason::BAD_LINE, None),
        (
            "{\"id\": 5, \"dataset\": 9}",
            reject_reason::BAD_LINE,
            Some(5),
        ),
        (
            "{\"id\": 6, \"eps_cand\": -0.1}",
            reject_reason::INVALID_EPSILON,
            Some(6),
        ),
        (
            "{\"id\": 7, \"eps_hist\": -3}",
            reject_reason::INVALID_EPSILON,
            Some(7),
        ),
        (
            "{\"id\": 8, \"op\": \"retract\"}",
            reject_reason::BAD_LINE,
            Some(8),
        ),
        (
            "{\"id\": 10, \"eps_cnad\": 0.001, \"epsilon_comb\": 0.001}",
            reject_reason::BAD_LINE,
            Some(10),
        ),
        (
            "{\"id\": 11, \"op\": \"stats\", \"dataset\": \"default\"}",
            reject_reason::BAD_LINE,
            Some(11),
        ),
    ];
    let mut text = String::new();
    for (line, _, _) in zoo {
        text.push_str(line);
        text.push('\n');
    }
    text.push_str("{\"id\": 99}\n");
    let (requests, rejects) = parse_requests_lenient(text.as_bytes()).unwrap();
    assert_eq!(requests.len(), 1, "the healthy trailing line still parses");
    assert_eq!(requests[0].id, 99);
    assert_eq!(rejects.len(), zoo.len(), "one reject per hostile line");
    for (i, ((line, reason, id), reject)) in zoo.iter().zip(&rejects).enumerate() {
        assert_eq!(reject.reason, *reason, "line {line:?}");
        assert_eq!(reject.id, *id, "line {line:?}");
        assert_eq!(reject.line, i + 1, "line {line:?}");
        assert!(!reject.message.is_empty());
    }
}
