//! Property tests for the batch grid service's pure core: ledger journal
//! replay (arbitrary complete/fail interleavings, with a truncated final
//! line standing in for a kill mid-append). See docs/BATCH.md.

use std::collections::BTreeMap;

use commtm_lab::batch::{CellState, Event, ManifestRecord, Overrides, Replay};
use commtm_lab::json::Json;
use proptest::prelude::*;

fn manifest() -> ManifestRecord {
    ManifestRecord {
        target: "fig09".into(),
        overrides: Overrides::default(),
        theme: "light".into(),
        grid_fingerprint: "0011223344556677".into(),
        total_cells: 4,
    }
}

/// Decodes one generated `(kind, job)` pair into an event. Jobs repeat
/// across the sequence, so interleavings exercise last-event-wins.
fn event(kind: usize, job: usize) -> Event {
    let job = format!("g#{job}");
    match kind {
        0 => Event::Completed {
            fingerprint: format!("fp-{job}"),
            wall_ms: 7,
            result: Json::obj(vec![("label", Json::Str(job.clone()))]),
            job,
        },
        _ => Event::Failed {
            error: format!("boom in {job}"),
            job,
        },
    }
}

/// The reference model: a map applying each event in order, last wins.
fn model(events: &[Event]) -> BTreeMap<String, CellState> {
    let mut states = BTreeMap::new();
    for e in events {
        let state = match e {
            Event::Completed {
                fingerprint,
                result,
                ..
            } => CellState::Completed {
                fingerprint: fingerprint.clone(),
                result: result.clone(),
            },
            Event::Failed { error, .. } => CellState::Failed {
                error: error.clone(),
            },
        };
        states.insert(e.job().to_string(), state);
    }
    states
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying a journal of arbitrary interleaved events reproduces the
    /// last-event-wins model exactly, and chopping bytes off the final
    /// line — byte-for-byte what a `kill -9` during an append leaves
    /// behind — loses exactly that one event and nothing else.
    #[test]
    fn replay_matches_last_event_wins_model(
        codes in proptest::collection::vec((0usize..2, 0usize..4), 0..40),
        cut in 0usize..256,
    ) {
        let events: Vec<Event> = codes.iter().map(|&(k, j)| event(k, j)).collect();
        let mut text = manifest().to_json().compact();
        for e in &events {
            text.push_str(&e.to_json().compact());
        }
        let r = Replay::parse(&text).unwrap();
        prop_assert!(!r.truncated_tail);
        prop_assert_eq!(&r.manifest, &manifest());
        prop_assert_eq!(&r.states, &model(&events));

        if let Some(last) = events.last() {
            let line = last.to_json().compact();
            // chop = 0 keeps the file whole; chop = 1 loses only the
            // final newline (the record itself still parses); more loses
            // the record. Never chop the whole line: that is just a
            // shorter, fully-valid journal.
            let chop = cut % line.len();
            let truncated = &text[..text.len() - chop];
            let r = Replay::parse(truncated).unwrap();
            if chop <= 1 {
                prop_assert!(!r.truncated_tail);
                prop_assert_eq!(&r.states, &model(&events));
            } else {
                prop_assert!(r.truncated_tail, "partial final line must be flagged");
                prop_assert_eq!(&r.states, &model(&events[..events.len() - 1]));
            }
        }
    }
}
