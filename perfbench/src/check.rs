//! Correctness checks. Each compares the program's output with a
//! computation made apart from it (a direct store query, the reference
//! model fed the workload's p-relations, the predicate's own evaluator)
//! or with a property the method must have. None compares against a
//! stored copy of an earlier output.

use quepa_aindex::{AugmentedKey, IndexView};
use quepa_check::ModelIndex;
use quepa_core::{AnswerNormalForm, AugmentedAnswer, IndexOp};
use quepa_pdm::{DataObject, GlobalKey, Pushdown, RelationKind};
use quepa_serve::{Response, Status};

/// A failed check, with what differed.
pub type Check = Result<(), String>;

/// An answer's `original` must equal a direct `Polystore::execute` of
/// the same native query.
pub fn originals_match(query: &str, got: &[DataObject], direct: &[DataObject]) -> Check {
    if got == direct {
        return Ok(());
    }
    let at =
        got.iter().zip(direct).position(|(a, b)| a != b).unwrap_or(got.len().min(direct.len()));
    Err(format!(
        "original of `{query}` differs from a direct execute at row {at} ({} vs {} rows)",
        got.len(),
        direct.len()
    ))
}

/// An answer's augmented keys, probabilities and distances must equal
/// the reference model's prediction for the same seeds and level, and
/// nothing may be missing (every object of the polystore exists).
pub fn answer_matches_model(
    query: &str,
    answer: &AnswerNormalForm,
    model: &ModelIndex,
    seeds: &[GlobalKey],
    level: usize,
) -> Check {
    let expected = AnswerNormalForm::from_parts(
        model.augment(seeds, level).into_iter().map(|m| (m.key, m.probability, m.distance)),
        Vec::new(),
    );
    diff_normal_forms(query, answer, &expected, "the reference model")
}

/// A filtered answer must equal the unfiltered answer restricted to the
/// predicate, as the predicate's own evaluator judges each object.
pub fn filtered_matches(
    query: &str,
    filtered: &AugmentedAnswer,
    unfiltered: &AugmentedAnswer,
    filter: &Pushdown,
) -> Check {
    originals_match(query, &filtered.original, &unfiltered.original)?;
    let expected = AnswerNormalForm::from_parts(
        unfiltered
            .augmented
            .iter()
            .filter(|a| filter.matches(a.object.key().key().as_str(), a.object.value()))
            .map(|a| (a.object.key().clone(), a.probability, a.distance)),
        unfiltered.missing.clone(),
    );
    diff_normal_forms(query, &filtered.normal_form(), &expected, "the restricted unfiltered answer")
}

/// A wire response must be OK and decode to the in-process answer of
/// the same query.
pub fn wire_response_matches(query: &str, response: &Response, inproc: &AugmentedAnswer) -> Check {
    if response.status != Status::Ok {
        return Err(format!(
            "`{query}` answered {:?}: {}",
            response.status,
            first_line(&response.payload)
        ));
    }
    if response.payload != inproc.normal_form().to_string() {
        return Err(format!(
            "wire answer of `{query}` differs from the in-process answer ({} vs {} bytes)",
            response.payload.len(),
            inproc.normal_form().to_string().len()
        ));
    }
    Ok(())
}

/// The server's admission ledger must account for exactly the requests
/// the clients sent, none shed.
pub fn ledger_balances(sent: u64, served: u64, shed: u64) -> Check {
    if served != sent || shed != 0 {
        return Err(format!(
            "clients sent {sent} requests, ledger served {served} and shed {shed}"
        ));
    }
    Ok(())
}

/// The index's answers for `seeds` (each at its level) must equal the
/// reference model's.
pub fn index_matches_model(
    what: &str,
    index: &IndexView,
    model: &ModelIndex,
    seeds: &[(GlobalKey, usize)],
) -> Check {
    for (seed, level) in seeds {
        let seeds = std::slice::from_ref(seed);
        let got = normal_keys(index.augment(seeds, *level));
        let expected = AnswerNormalForm::from_parts(
            model.augment(seeds, *level).into_iter().map(|m| (m.key, m.probability, m.distance)),
            Vec::new(),
        );
        diff_normal_forms(
            &format!("{what}: augment({seed}, {level})"),
            &got,
            &expected,
            "the reference model",
        )?;
    }
    Ok(())
}

/// Two indexes (the live one and the one recovered from its directory)
/// must answer every seed identically.
pub fn indexes_agree(a: &IndexView, b: &IndexView, seeds: &[(GlobalKey, usize)]) -> Check {
    for (seed, level) in seeds {
        let seeds = std::slice::from_ref(seed);
        let x = normal_keys(a.augment(seeds, *level));
        let y = normal_keys(b.augment(seeds, *level));
        diff_normal_forms(&format!("augment({seed}, {level})"), &y, &x, "the live index")?;
    }
    Ok(())
}

/// Every acknowledged write is in `index`: each inserted matching is
/// present with at least its probability, each removed object is gone.
pub fn writes_survive(what: &str, index: &IndexView, acknowledged: &[IndexOp]) -> Check {
    for op in acknowledged {
        match op {
            IndexOp::InsertMatching { a, b, p } => match index.edge(a, b, RelationKind::Matching) {
                Some(edge) if edge.probability >= *p => {}
                Some(edge) => {
                    return Err(format!(
                        "{what}: matching {a} ~ {b} holds p={} < acknowledged {}",
                        edge.probability.get(),
                        p.get()
                    ))
                }
                None => return Err(format!("{what}: acknowledged matching {a} ~ {b} is missing")),
            },
            IndexOp::RemoveObject { key } if index.contains(key) => {
                return Err(format!("{what}: acknowledged removal of {key} did not hold"))
            }
            _ => {}
        }
    }
    Ok(())
}

fn normal_keys(keys: Vec<AugmentedKey>) -> AnswerNormalForm {
    AnswerNormalForm::from_parts(
        keys.into_iter().map(|k| (k.key, k.probability, k.distance)),
        Vec::new(),
    )
}

fn diff_normal_forms(
    what: &str,
    got: &AnswerNormalForm,
    expected: &AnswerNormalForm,
    against: &str,
) -> Check {
    if got == expected {
        return Ok(());
    }
    let extra = got.augmented.iter().find(|e| !expected.augmented.contains(e));
    let lacking = expected.augmented.iter().find(|e| !got.augmented.contains(e));
    Err(format!(
        "{what}: {} augmented / {} missing, {against} has {} / {}; first extra {:?}, first lacking {:?}",
        got.augmented.len(),
        got.missing.len(),
        expected.augmented.len(),
        expected.missing.len(),
        extra.map(|e| &e.key),
        lacking.map(|e| &e.key),
    ))
}

fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or("")
}

#[cfg(test)]
mod tests {
    //! Each check must report a failure when fed a tampered input.

    use std::sync::Arc;

    use quepa_core::Quepa;
    use quepa_pdm::{PushOp, Value};
    use quepa_polystore::Deployment;
    use quepa_workload::{BuiltPolystore, WorkloadConfig};

    use super::*;
    use crate::plan::{self, Size};

    const QUERY: &str = "SELECT * FROM inventory WHERE seq >= 10 AND seq < 18";

    fn system() -> (Quepa, ModelIndex) {
        let size = Size::SMOKE;
        let built = BuiltPolystore::build(WorkloadConfig {
            albums: size.albums,
            replica_sets: size.replica_sets,
            deployment: Deployment::InProcess,
            seed: 5,
        });
        let mut model = ModelIndex::new();
        plan::feed_model(&mut model, &built.data, size.replica_sets);
        (built.into_quepa(), model)
    }

    fn seeds(answer: &AugmentedAnswer) -> Vec<GlobalKey> {
        answer.original.iter().map(|o| o.key().clone()).collect()
    }

    #[test]
    fn a_dropped_augmented_object_is_caught() {
        let (quepa, model) = system();
        let mut answer = quepa.augmented_search("transactions", QUERY, 1).unwrap();
        let seeds = seeds(&answer);
        answer_matches_model(QUERY, &answer.normal_form(), &model, &seeds, 1).unwrap();
        answer.augmented.pop();
        assert!(answer_matches_model(QUERY, &answer.normal_form(), &model, &seeds, 1).is_err());
    }

    #[test]
    fn an_altered_original_row_is_caught() {
        let (quepa, _) = system();
        let answer = quepa.augmented_search("transactions", QUERY, 0).unwrap();
        let direct = quepa.polystore().execute("transactions", QUERY).unwrap();
        originals_match(QUERY, &answer.original, &direct).unwrap();
        let mut altered = answer.original.clone();
        altered[3] = DataObject::new(altered[3].key().clone(), Value::Int(7));
        assert!(originals_match(QUERY, &altered, &direct).is_err());
    }

    #[test]
    fn a_filtered_answer_with_an_extra_object_is_caught() {
        let (quepa, _) = system();
        let filter = Pushdown::path("year", PushOp::Gte, Value::Int(1990));
        let filtered = quepa.augmented_search_filtered("transactions", QUERY, 1, &filter).unwrap();
        let unfiltered = quepa.augmented_search("transactions", QUERY, 1).unwrap();
        filtered_matches(QUERY, &filtered, &unfiltered, &filter).unwrap();
        let mut tampered = filtered.clone();
        let rejected = unfiltered
            .augmented
            .iter()
            .find(|a| !filter.matches(a.object.key().key().as_str(), a.object.value()))
            .expect("the filter rejects something");
        tampered.augmented.push(rejected.clone());
        assert!(filtered_matches(QUERY, &tampered, &unfiltered, &filter).is_err());
    }

    #[test]
    fn a_swapped_wire_response_is_caught() {
        let (quepa, _) = system();
        let quepa = Arc::new(quepa);
        let mut server =
            quepa_serve::Server::start(Arc::clone(&quepa), "127.0.0.1:0", Default::default())
                .unwrap();
        let other = "SELECT * FROM inventory WHERE seq >= 40 AND seq < 48";
        let mut client = quepa_serve::Client::connect(server.local_addr()).unwrap();
        let mine = client.augment("transactions", 1, QUERY).unwrap();
        let theirs = client.augment("transactions", 1, other).unwrap();
        let metrics = client.metrics(false).unwrap();
        drop(client);
        server.shutdown();
        let inproc = quepa.augmented_search("transactions", QUERY, 1).unwrap();
        wire_response_matches(QUERY, &mine, &inproc).unwrap();
        assert!(wire_response_matches(QUERY, &theirs, &inproc).is_err());
        let served =
            crate::bench::prometheus_counter(&metrics.payload, "quepa_admission_served_total");
        ledger_balances(2, served, 0).unwrap();
        assert!(ledger_balances(3, served, 0).is_err());
        assert!(ledger_balances(2, served, 1).is_err());
    }

    #[test]
    fn a_mutation_left_out_of_the_reference_is_caught() {
        let (quepa, model) = system();
        let size = Size::SMOKE;
        let entries: Vec<usize> = quepa.index_shard_stats().iter().map(|s| s.entries).collect();
        let batches = plan::batches(&size, 9, 1, &entries);
        let ops: Vec<IndexOp> = batches.iter().flatten().cloned().collect();
        for batch in &batches {
            quepa.apply_mutations(batch).unwrap();
        }
        let seeds: Vec<(GlobalKey, usize)> =
            ops.iter().flat_map(crate::bench::endpoints).map(|k| (k, 0)).collect();
        let mut full = model.clone();
        ops.iter().for_each(|op| plan::apply_to_model(&mut full, op));
        index_matches_model("live", &quepa.index(), &full, &seeds).unwrap();
        writes_survive("live", &quepa.index(), &ops).unwrap();
        let inserted =
            ops.iter().position(|op| matches!(op, IndexOp::InsertMatching { .. })).unwrap();
        let mut short = model.clone();
        for (i, op) in ops.iter().enumerate() {
            if i != inserted {
                plan::apply_to_model(&mut short, op);
            }
        }
        assert!(index_matches_model("live", &quepa.index(), &short, &seeds).is_err());
        // An index that never saw the writes fails the survival check.
        let (fresh, _) = system();
        assert!(writes_survive("fresh", &fresh.index(), &ops).is_err());
        assert!(indexes_agree(&quepa.index(), &fresh.index(), &seeds).is_err());
    }
}
