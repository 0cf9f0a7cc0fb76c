//! CLI-side observability plumbing: the shared metrics registry behind
//! `--trace-out` / `--progress`, the Chrome-trace file writer, and the stderr
//! heartbeat thread.
//!
//! The registry is created only when a flag asks for it; otherwise every layer
//! sees `None` and pays a single branch per hook. Nothing recorded here ever
//! reaches `--out` payloads — the trace goes to its own file and the heartbeat
//! to stderr, so stripped-JSON byte-identity holds with recording on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ise_obs::MetricsRegistry;

use crate::CliError;

/// Builds the run's registry when `--trace-out` or `--progress` asked for one.
pub fn registry_for(trace_out: Option<&str>, progress: bool) -> Option<Arc<MetricsRegistry>> {
    (trace_out.is_some() || progress).then(|| Arc::new(MetricsRegistry::new()))
}

/// Writes the registry's buffered spans as Chrome trace-event JSON to `path`
/// (or stdout for `-`), reporting failures as [`CliError::Io`].
pub fn write_trace(path: &str, registry: &MetricsRegistry) -> Result<(), CliError> {
    crate::emit(path, &(registry.render_chrome_trace() + "\n"))
}

/// A background thread printing `--progress` heartbeat lines on stderr every
/// ~500ms while a batch runs. [`Heartbeat::stop`] (or drop) joins it; a final
/// line is printed on stop so short runs still report once.
pub struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Heartbeat {
    /// Spawns the heartbeat over `registry` when `progress` is set.
    pub fn start(registry: Option<Arc<MetricsRegistry>>, progress: bool) -> Option<Self> {
        let registry = registry.filter(|_| progress)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(500));
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                eprintln!("{}", heartbeat_line(&registry));
            }
            eprintln!("{}", heartbeat_line(&registry));
        });
        Some(Heartbeat {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the heartbeat thread and waits for its final line.
    pub fn stop(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.finish();
    }
}

fn heartbeat_line(registry: &MetricsRegistry) -> String {
    format!(
        "ise: progress blocks={} runs={} nodes={} cuts={} tasks={}",
        registry.counter_value("ise_batch_blocks_total"),
        registry.counter_value("ise_engine_runs_total"),
        registry.counter_value("ise_engine_search_nodes_total"),
        registry.counter_value("ise_engine_valid_cuts_total"),
        registry.counter_value("ise_pool_tasks_total"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_created_only_on_demand() {
        assert!(registry_for(None, false).is_none());
        assert!(registry_for(Some("t.json"), false).is_some());
        assert!(registry_for(None, true).is_some());
    }

    #[test]
    fn heartbeat_requires_progress_and_stops_cleanly() {
        assert!(Heartbeat::start(None, true).is_none());
        let registry = Arc::new(MetricsRegistry::new());
        assert!(Heartbeat::start(Some(Arc::clone(&registry)), false).is_none());
        let hb = Heartbeat::start(Some(registry), true).expect("progress heartbeat");
        hb.stop();
    }

    #[test]
    fn write_trace_produces_a_loadable_file() {
        use ise_obs::Recorder;
        let registry = MetricsRegistry::new();
        let token = registry.span_begin("test", "span");
        registry.span_end(token);
        let path = std::env::temp_dir().join(format!("ise-obs-trace-{}.json", std::process::id()));
        write_trace(path.to_str().unwrap(), &registry).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        let parsed = ise_bench::json::Json::parse(text.trim()).unwrap();
        assert!(parsed.get("traceEvents").is_some());
        std::fs::remove_file(&path).unwrap();
    }
}
