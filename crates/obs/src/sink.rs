//! The optional JSONL trace sink for structured events.
//!
//! When no sink is installed (the default) every [`trace`] call is one
//! relaxed atomic load. With a sink installed each event becomes one JSON
//! line — `{"ts_ns":…,"event":"…", …fields}` — with a monotonic timestamp
//! relative to sink installation, so traces are diffable across runs.

use serde::Value;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

/// A typed field value of a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    fn to_value(&self) -> Value {
        match self {
            FieldValue::U64(v) => Value::UInt(*v),
            FieldValue::I64(v) => {
                if *v >= 0 {
                    Value::UInt(*v as u64)
                } else {
                    Value::Int(*v)
                }
            }
            FieldValue::F64(v) => Value::Float(*v),
            FieldValue::Bool(v) => Value::Bool(*v),
            FieldValue::Str(v) => Value::Str(v.clone()),
        }
    }
}

/// A JSONL sink: structured events, one JSON object per line, behind a
/// mutex (events are rare — operation boundaries, not event loops).
pub struct TraceSink {
    writer: Mutex<Box<dyn Write + Send>>,
    epoch: Instant,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink").finish_non_exhaustive()
    }
}

/// Serializes a borrowed `Value` tree (the shim's `to_string` takes any
/// `Serialize`; `Value` itself does not implement it).
struct RawValue<'a>(&'a Value);

impl serde::Serialize for RawValue<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl TraceSink {
    /// A sink over any writer.
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        TraceSink {
            writer: Mutex::new(writer),
            epoch: Instant::now(),
        }
    }

    /// A sink appending to the file at `path` (created if absent).
    pub fn to_path(path: &str) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self::to_writer(Box::new(std::io::BufWriter::new(file))))
    }

    /// A sink writing into a shared in-memory buffer (for tests and
    /// programmatic capture).
    pub fn in_memory() -> (Self, Arc<Mutex<Vec<u8>>>) {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buffer = Arc::new(Mutex::new(Vec::new()));
        (
            Self::to_writer(Box::new(Shared(Arc::clone(&buffer)))),
            buffer,
        )
    }

    /// Write one event line. Errors are swallowed and a poisoned writer is
    /// written through: tracing must never take the instrumented
    /// computation down.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let ts = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut entries = Vec::with_capacity(fields.len() + 2);
        entries.push(("ts_ns".to_string(), Value::UInt(ts)));
        entries.push(("event".to_string(), Value::Str(name.to_string())));
        for (key, value) in fields {
            entries.push((key.to_string(), value.to_value()));
        }
        let Ok(line) = serde_json::to_string(&RawValue(&Value::Object(entries))) else {
            return;
        };
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(writer, "{line}");
        let _ = writer.flush();
    }
}

static TRACE_ON: AtomicBool = AtomicBool::new(false);
static TRACE_SINK: RwLock<Option<Arc<TraceSink>>> = RwLock::new(None);

/// Install `sink` as the process-wide trace sink (replacing any previous
/// one) and return a handle to it.
pub fn install_trace_sink(sink: TraceSink) -> Arc<TraceSink> {
    let sink = Arc::new(sink);
    *TRACE_SINK.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&sink));
    TRACE_ON.store(true, Ordering::Release);
    sink
}

/// Remove the process-wide trace sink; subsequent [`trace`] calls are
/// no-ops again.
pub fn clear_trace_sink() {
    TRACE_ON.store(false, Ordering::Release);
    *TRACE_SINK.write().unwrap_or_else(PoisonError::into_inner) = None;
}

/// True while a trace sink is installed (one relaxed load — the guard hot
/// call sites use before building fields).
#[inline]
pub fn trace_enabled() -> bool {
    TRACE_ON.load(Ordering::Acquire)
}

/// Emit a structured event to the installed sink, if any.
///
/// ```
/// use xgft_obs::FieldValue;
/// // No sink installed: this is a single atomic load and returns.
/// xgft_obs::trace("compile_finished", &[("routes", FieldValue::U64(240))]);
/// ```
pub fn trace(name: &str, fields: &[(&str, FieldValue)]) {
    if !trace_enabled() {
        return;
    }
    let sink = TRACE_SINK
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(sink) = sink {
        sink.event(name, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_become_json_lines_with_monotonic_timestamps() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.event("compile_started", &[("algorithm", "d-mod-k".into())]);
        sink.event(
            "patch_applied",
            &[
                ("rerouted", FieldValue::U64(12)),
                ("unroutable", FieldValue::U64(0)),
                ("ratio", FieldValue::F64(0.5)),
                ("degraded", FieldValue::Bool(true)),
                ("delta", FieldValue::I64(-3)),
            ],
        );
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"compile_started\""), "{text}");
        assert!(lines[0].contains("\"algorithm\":\"d-mod-k\""));
        assert!(lines[1].contains("\"rerouted\":12"));
        assert!(lines[1].contains("\"delta\":-3"));
        let ts = |line: &str| {
            line.split("\"ts_ns\":")
                .nth(1)
                .and_then(|rest| rest.split(',').next())
                .and_then(|n| n.trim().parse::<u64>().ok())
                .unwrap()
        };
        assert!(ts(lines[0]) <= ts(lines[1]));
    }

    #[test]
    fn global_sink_install_capture_and_clear() {
        // Serialised with any other test touching the global sink by the
        // install/clear pair running inside one test.
        let (sink, buffer) = TraceSink::in_memory();
        install_trace_sink(sink);
        assert!(trace_enabled());
        trace("agreement_checked", &[("all_agree", true.into())]);
        clear_trace_sink();
        assert!(!trace_enabled());
        trace("dropped_after_clear", &[]);
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        assert!(text.contains("agreement_checked"));
        assert!(!text.contains("dropped_after_clear"));
    }
}
