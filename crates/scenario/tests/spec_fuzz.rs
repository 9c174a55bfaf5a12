//! Spec fuzzer: no spec a user can write makes the scenario runner panic.
//!
//! Every iteration takes one of the checked-in example specs under
//! `examples/scenarios/` (all but the million-leaf `compact_million.json`)
//! and applies one to three mutations: structural ones to the spec as a
//! `serde::Value`, or byte-level ones to the example's text, JSON or TOML.
//! Parsing the mutated text must not panic. A spec that parses runs
//! through `run_scenario` with `quick: true` under `catch_unwind` and must
//! come back `Ok` or as a typed `ScenarioError`.
//!
//! Value mutations set a number to 0, 1, 2, −1 or 0.0 (a permille rate
//! also to its bound + 1, 1001), drop a key, change a value's type, or
//! swap an enum tag (engine, faults, seeds, representation, topology).
//! A number is never raised above its original value, a segment size is
//! never shrunk to a nonzero value, and swapped-in topologies keep the
//! radix.
//!
//! Text mutations delete a byte, write or insert punctuation, truncate,
//! or insert a run of `[` or `{` (some longer than the parsers' nesting
//! limit of 128), a quote, a multi-byte UTF-8 character, an arbitrary byte, or a copy of
//! a short span of the text. A case's text never grows more than
//! [`MAX_TEXT_GROWTH`] bytes past its example. Inserted bytes may form or
//! lengthen numbers, so a text case runs only if each of its numbers is
//! at most the largest number its example holds under the same key; the
//! others are parsed only. So no case can allocate or run without bound.
//!
//! The stream is seeded from a fixed constant through the workspace's
//! canonical SplitMix64 and the iteration count is fixed, so every run
//! replays the same cases; a failure names the iteration and prints the
//! mutated spec.

use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use xgft_scenario::cli::load_spec;
use xgft_scenario::{run_scenario, toml, RunOptions, ScenarioSpec};
use xgft_topo::fault::splitmix64;

/// Cases per run: every example sees each mutation kind several times,
/// about half of them value mutations and half text mutations.
const ITERS: u64 = 800;

/// Fixed stream seed — the whole fuzz run is a pure function of this.
const STREAM_SEED: u64 = 0x5EC5_F022_0B5E_55ED;

/// The most bytes a text case may grow past its example.
const MAX_TEXT_GROWTH: usize = 512;

/// The longest span a text mutation copies.
const MAX_SPAN: usize = 64;

/// Minimal deterministic RNG over the workspace's canonical SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform draw in `[0, bound)`.
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// One step of a path from the root of a `Value` to one of its nodes.
#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every node of `value` as a path from the root.
fn paths(value: &Value, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    out.push(path.clone());
    match value {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(Step::Index(i));
                paths(item, path, out);
                path.pop();
            }
        }
        Value::Object(fields) => {
            for (key, field) in fields {
                path.push(Step::Key(key.clone()));
                paths(field, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

fn node<'a>(value: &'a Value, path: &[Step]) -> &'a Value {
    path.iter().fold(value, |node, step| match (node, step) {
        (Value::Array(items), Step::Index(i)) => &items[*i],
        (Value::Object(fields), Step::Key(key)) => {
            &fields.iter().find(|(k, _)| k == key).unwrap().1
        }
        _ => unreachable!("paths() only yields existing nodes"),
    })
}

fn node_mut<'a>(value: &'a mut Value, path: &[Step]) -> &'a mut Value {
    path.iter().fold(value, |node, step| match (node, step) {
        (Value::Array(items), Step::Index(i)) => &mut items[*i],
        (Value::Object(fields), Step::Key(key)) => {
            &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1
        }
        _ => unreachable!("paths() only yields existing nodes"),
    })
}

/// The object key nearest above the node (`params` for a parameter value).
fn key_of(path: &[Step]) -> &str {
    path.iter()
        .rev()
        .find_map(|step| match step {
            Step::Key(key) => Some(key.as_str()),
            Step::Index(_) => None,
        })
        .unwrap_or("")
}

fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn uints(items: &[u64]) -> Value {
    Value::Array(items.iter().map(|&u| Value::UInt(u)).collect())
}

/// Set a top-level field, adding it when absent.
fn set_field(spec: &mut Value, key: &str, value: Value) {
    let Value::Object(fields) = spec else { return };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some(field) => field.1 = value,
        None => fields.push((key.to_string(), value)),
    }
}

/// The radix of the spec's topology (`k`, or the first `m`), 4 if none.
fn radix(spec: &Value) -> u64 {
    let mut all = Vec::new();
    paths(spec, &mut Vec::new(), &mut all);
    all.iter()
        .filter(|path| matches!(path.first(), Some(Step::Key(k)) if k == "topology"))
        .find_map(|path| match (key_of(path), node(spec, path)) {
            ("k" | "m", Value::UInt(u)) => Some(*u),
            _ => None,
        })
        .unwrap_or(4)
}

/// Apply one structural mutation to the spec value.
fn mutate_value(spec: &mut Value, rng: &mut Rng) {
    let mut all = Vec::new();
    paths(spec, &mut Vec::new(), &mut all);
    match rng.below(4) {
        // A number to a boundary value, never above the original.
        0 => {
            let numeric: Vec<_> = all
                .iter()
                .filter(|p| number(node(spec, p)).is_some())
                .collect();
            let path = *rng.pick(&numeric);
            let key = key_of(path);
            let original = number(node(spec, path)).unwrap();
            let mut options: Vec<Value> = [
                Value::UInt(0),
                Value::UInt(1),
                Value::UInt(2),
                Value::Int(-1),
                Value::Float(0.0),
            ]
            .into_iter()
            .filter(|v| number(v).unwrap() <= original)
            .filter(|v| key != "segment_bytes" || number(v).unwrap() <= 0.0)
            .collect();
            if key.contains("permille") {
                options.push(Value::UInt(1001));
            }
            if !options.is_empty() {
                *node_mut(spec, path) = rng.pick(&options).clone();
            }
        }
        // Drop a key.
        1 => {
            let objects: Vec<_> = all
                .iter()
                .filter(|p| matches!(node(spec, p), Value::Object(f) if !f.is_empty()))
                .collect();
            let path = *rng.pick(&objects);
            let Value::Object(fields) = node_mut(spec, path) else {
                unreachable!()
            };
            fields.remove(rng.below(fields.len()));
        }
        // Change a value's type.
        2 => {
            let path = rng.pick(&all[1..]);
            let node = node_mut(spec, path);
            let kind = |v: &Value| match v {
                Value::UInt(_) | Value::Int(_) | Value::Float(_) => 0,
                Value::Null => 1,
                Value::Bool(_) => 2,
                Value::Str(_) => 3,
                Value::Array(_) => 4,
                Value::Object(_) => 5,
            };
            let options: Vec<Value> = [
                Value::UInt(0),
                Value::Null,
                Value::Bool(true),
                Value::Str("x".to_string()),
                Value::Array(Vec::new()),
                Value::Object(Vec::new()),
            ]
            .into_iter()
            .filter(|v| kind(v) != kind(node))
            .collect();
            *node = rng.pick(&options).clone();
        }
        // Swap an enum tag.
        _ => {
            let k = radix(spec);
            let (key, options) = match rng.below(5) {
                0 => (
                    "engine",
                    ["Tracesim", "Netsim", "Flow", "Nca", "AllWithAgreement"]
                        .map(|e| Value::Str(e.to_string()))
                        .to_vec(),
                ),
                1 => (
                    "representation",
                    vec![
                        Value::Str("compiled".to_string()),
                        Value::Str("compact".to_string()),
                    ],
                ),
                2 => (
                    "faults",
                    vec![
                        Value::Str("None".to_string()),
                        object(vec![(
                            "UniformLinks",
                            object(vec![
                                ("permille", uints(&[0, 10])),
                                ("draws_per_point", Value::UInt(1)),
                            ]),
                        )]),
                    ],
                ),
                3 => (
                    "seeds",
                    vec![
                        object(vec![("List", object(vec![("seeds", uints(&[1]))]))]),
                        object(vec![("List", object(vec![("seeds", uints(&[]))]))]),
                        object(vec![(
                            "Stream",
                            object(vec![
                                ("base_seed", Value::UInt(1)),
                                ("seeds_per_point", Value::UInt(1)),
                            ]),
                        )]),
                    ],
                ),
                _ => (
                    "topology",
                    vec![
                        object(vec![(
                            "SlimmedTwoLevel",
                            object(vec![("k", Value::UInt(k)), ("w2", Value::UInt(k))]),
                        )]),
                        object(vec![(
                            "KAryNTree",
                            object(vec![("k", Value::UInt(k)), ("n", Value::UInt(2))]),
                        )]),
                        object(vec![(
                            "Custom",
                            object(vec![("m", uints(&[k, k])), ("w", uints(&[1, k]))]),
                        )]),
                    ],
                ),
            };
            set_field(spec, key, rng.pick(&options).clone());
        }
    }
}

/// Apply one byte-level mutation to spec text: delete a byte, write or
/// insert punctuation, truncate, or insert a bracket run, a quote, a
/// multi-byte character, an arbitrary byte or a copy of a span. An
/// insertion that would grow the text past `cap` bytes is skipped.
fn mutate_text(text: &mut Vec<u8>, cap: usize, rng: &mut Rng) {
    const PUNCTUATION: &[u8] = b"[]{}=\",.#' \n";
    const MULTI_BYTE: &[&str] = &["é", "€", "𝄞", "\u{feff}", "\u{10ffff}"];
    if text.is_empty() {
        return;
    }
    let at = rng.below(text.len());
    let insert: Vec<u8> = match rng.below(9) {
        0 => {
            text.remove(at);
            return;
        }
        1 => {
            text[at] = *rng.pick(PUNCTUATION);
            return;
        }
        2 => vec![*rng.pick(PUNCTUATION)],
        3 => {
            text.truncate(at);
            return;
        }
        // Runs reach past the parsers' nesting limit of 128.
        4 => vec![*rng.pick(b"[{"); 1 + rng.below(160)],
        5 => vec![*rng.pick(b"\"'")],
        6 => rng.pick(MULTI_BYTE).as_bytes().to_vec(),
        7 => vec![rng.next() as u8],
        _ => {
            let start = rng.below(text.len());
            let len = 1 + rng.below(MAX_SPAN.min(text.len() - start));
            text[start..start + len].to_vec()
        }
    };
    if text.len() + insert.len() <= cap {
        text.splice(at..at, insert);
    }
}

/// The largest number under each object key of `value`.
fn numbers_by_key(value: &Value) -> HashMap<String, f64> {
    let mut all = Vec::new();
    paths(value, &mut Vec::new(), &mut all);
    let mut bounds = HashMap::new();
    for path in &all {
        if let Some(n) = number(node(value, path)) {
            let bound = bounds.entry(key_of(path).to_string()).or_insert(n);
            *bound = f64::max(*bound, n);
        }
    }
    bounds
}

/// True if every number of `spec` is at most the largest number that
/// `bounds` (its example's [`numbers_by_key`]) holds under the same key.
fn within_example_sizes(spec: &ScenarioSpec, bounds: &HashMap<String, f64>) -> bool {
    numbers_by_key(&spec.to_value())
        .iter()
        .all(|(key, n)| bounds.get(key).is_some_and(|bound| n <= bound))
}

#[test]
fn mutated_specs_run_or_fail_with_a_typed_error() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| !path.ends_with("compact_million.json"))
        .collect();
    files.sort();
    let examples: Vec<(String, ScenarioSpec)> = files
        .iter()
        .map(|path| {
            let path = path.to_str().unwrap();
            (path.to_string(), load_spec(path).unwrap())
        })
        .collect();

    let mut rng = Rng(STREAM_SEED);
    let (mut ok, mut typed, mut parsed_only, mut panicked) = (0, 0, 0, Vec::new());
    for iter in 0..ITERS {
        let (path, example) = rng.pick(&examples);
        let mutations = 1 + rng.below(3);
        let case = if rng.below(2) == 0 {
            let mut text = std::fs::read(path).unwrap();
            let cap = text.len() + MAX_TEXT_GROWTH;
            for _ in 0..mutations {
                mutate_text(&mut text, cap, &mut rng);
            }
            // Byte edits can leave invalid UTF-8, which reading the file
            // would reject; parse the rest.
            let text = String::from_utf8_lossy(&text);
            let parse = || {
                if path.ends_with(".toml") {
                    toml::from_toml_str::<ScenarioSpec>(&text).ok()
                } else {
                    serde_json::from_str::<ScenarioSpec>(&text).ok()
                }
            };
            match catch_unwind(parse) {
                Ok(Some(spec))
                    if !within_example_sizes(&spec, &numbers_by_key(&example.to_value())) =>
                {
                    parsed_only += 1;
                    continue;
                }
                Ok(parsed) => Ok(parsed),
                Err(_) => Err(format!("parser panicked on:\n{text}")),
            }
        } else {
            let mut value = example.to_value();
            for _ in 0..mutations {
                mutate_value(&mut value, &mut rng);
            }
            Ok(ScenarioSpec::from_value(&value).ok())
        };
        let spec = match case {
            Ok(Some(spec)) => spec,
            Ok(None) => {
                typed += 1;
                continue;
            }
            Err(report) => {
                panicked.push(format!("iteration {iter} ({path}): {report}"));
                continue;
            }
        };
        let options = RunOptions {
            quick: true,
            ..RunOptions::default()
        };
        match catch_unwind(AssertUnwindSafe(|| run_scenario(&spec, &options))) {
            Ok(Ok(_)) => ok += 1,
            Ok(Err(_)) => typed += 1,
            Err(_) => panicked.push(format!(
                "iteration {iter} ({path}): run_scenario panicked on\n{}",
                serde_json::to_string_pretty(&spec).unwrap()
            )),
        }
    }
    assert!(panicked.is_empty(), "{}", panicked.join("\n\n"));
    // Both outcomes are exercised, so the stream reaches the engines.
    assert!(
        ok > 0 && typed > 0,
        "ok {ok}, typed errors {typed}, parsed only {parsed_only}"
    );
}
