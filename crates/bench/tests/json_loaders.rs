//! The two JSON loaders — workflow files and benchmark configurations —
//! return `Ok` or `Err` for any input text: never a panic, and never a
//! stack overflow on deeply nested input.

use idebench_bench::config::BenchmarkConfig;
use idebench_workflow::{Workflow, WorkflowGenerator, WorkflowType};
use proptest::prelude::*;

/// Runs both loaders on `text` and reports which accepted it; a panic or
/// an abort fails the test.
fn load_both(text: &str) -> (bool, bool) {
    (
        Workflow::from_json(text).is_ok(),
        BenchmarkConfig::from_json(text).is_ok(),
    )
}

/// Valid documents of both kinds: the default configuration first, then
/// one generated workflow of each type.
fn valid_documents() -> Vec<String> {
    let mut docs = vec![BenchmarkConfig::default().to_json()];
    docs.extend(
        WorkflowType::ALL
            .iter()
            .map(|&kind| WorkflowGenerator::new(kind, 7).generate(6).to_json()),
    );
    docs
}

#[test]
fn valid_documents_load() {
    let docs = valid_documents();
    assert_eq!(load_both(&docs[0]), (false, true));
    for doc in &docs[1..] {
        assert_eq!(load_both(doc), (true, false));
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let depth = 100_000;
    for text in [
        "[".repeat(depth),
        "{\"a\":".repeat(depth),
        format!("{}{}", "[".repeat(depth), "]".repeat(depth)),
        format!("{{\"dataset\":{}", "[".repeat(depth)),
    ] {
        assert_eq!(load_both(&text), (false, false));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        load_both(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn truncated_documents_are_errors(doc in 0usize..6, cut in 0.0f64..1.0) {
        let docs = valid_documents();
        let doc = docs[doc].as_bytes();
        // Every proper prefix of a pretty-printed document is incomplete.
        let cut = (cut * doc.len() as f64) as usize;
        let text = String::from_utf8_lossy(&doc[..cut]);
        prop_assert_eq!(load_both(&text), (false, false));
    }

    #[test]
    fn mutated_documents_never_panic(
        doc in 0usize..6,
        edits in prop::collection::vec((0.0f64..1.0, any::<u8>()), 1..8),
    ) {
        let mut bytes = valid_documents()[doc].clone().into_bytes();
        for (at, byte) in edits {
            let at = (at * bytes.len() as f64) as usize;
            // Printable bytes reach deeper into the parser than raw noise.
            bytes[at] = if byte < 128 { b' ' + byte % 95 } else { byte };
        }
        load_both(&String::from_utf8_lossy(&bytes));
    }
}
