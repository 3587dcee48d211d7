//! `traj-trace`: zero-dependency structured event tracing.
//!
//! Where the metric [`Registry`](crate::Registry) aggregates (a span
//! collapses into its `span.<name>` log₂ histogram), this module records
//! the *timeline*: every span begin/end, instant event and counter
//! sample, stamped with a monotonic nanosecond timestamp and the
//! recording thread's track id. That is what lets a per-worker view of
//! the experiment runner's parallel sweep show where wall-clock time
//! actually goes.
//!
//! A span is one guard with one pair of clock reads ([`span_with`]):
//! they stamp its `Begin` and `End`, and their difference is its
//! histogram sample, recorded with or without a session.
//!
//! # Recording model
//!
//! * One **track** per recording thread, holding a bounded **ring buffer**
//!   of fixed-size binary events (three `u64` words each). The owning
//!   thread is the only writer; drains happen from any thread via a
//!   release/acquire publish protocol — no locks on the hot path.
//! * Event names are **interned** `&'static str`s: the `trace_span!` /
//!   `trace_instant!` / `trace_counter!` macros resolve the string-table
//!   id once per call site, so recording is stores of three words — no
//!   allocation, no formatting, no hashing.
//! * When a ring is full, new events are **dropped** (never blocking) and
//!   counted per track. A span's `Begin` reserves the slot for its `End`,
//!   so drops can never produce an unbalanced trace: either both events
//!   of a span are recorded, or neither.
//! * Capacity is fixed at session start ([`start_with_capacity`]); rings
//!   are allocated lazily on a thread's first recorded event.
//!
//! # Sessions and drains
//!
//! [`start`] begins a session (discarding any undrained leftovers),
//! [`stop`] ends it and returns the [`Trace`]; [`drain`] can harvest
//! mid-session without stopping. Concurrent drains are serialized; a
//! drain observes each event exactly once, so mid-run drains compose
//! with [`Trace::merge`].
//!
//! # Exports
//!
//! * [`Trace::to_chrome_json`] — Chrome Trace Event JSON, loadable in
//!   Perfetto / `chrome://tracing`, one named thread per track;
//! * [`Trace::to_folded`] — folded-stack text (`label;outer;inner ns`)
//!   for flamegraph tooling (self-time per stack, nanoseconds);
//! * [`Trace::validate`] — the well-formedness contract (balanced spans,
//!   monotone timestamps, valid name references) used by tests and CI.
//!
//! With `--no-default-features` the recorder compiles out: every entry
//! point is an `#[inline(always)]` no-op returning an empty [`Trace`].

use std::collections::BTreeMap;

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened (matched by a later [`TraceEventKind::End`]).
    Begin,
    /// The innermost open span closed.
    End,
    /// A point-in-time marker.
    Instant,
    /// A sampled counter value (rendered as a counter track).
    Counter,
}

impl TraceEventKind {
    #[cfg(feature = "enabled")]
    fn as_u64(self) -> u64 {
        match self {
            TraceEventKind::Begin => 0,
            TraceEventKind::End => 1,
            TraceEventKind::Instant => 2,
            TraceEventKind::Counter => 3,
        }
    }

    #[cfg(feature = "enabled")]
    fn from_u64(v: u64) -> Option<Self> {
        match v {
            0 => Some(TraceEventKind::Begin),
            1 => Some(TraceEventKind::End),
            2 => Some(TraceEventKind::Instant),
            3 => Some(TraceEventKind::Counter),
            _ => None,
        }
    }
}

/// One fixed-size trace event: what happened, when, and a payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind.
    pub kind: TraceEventKind,
    /// Index into [`Trace::names`] (the interned string table).
    pub name: u32,
    /// Nanoseconds since the process trace epoch (monotonic clock).
    pub ts_ns: u64,
    /// Payload: span field / instant detail / counter sample value.
    pub value: u64,
}

/// The drained timeline of one recording thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrackTrace {
    /// Stable per-thread track id (dense, assigned at first event).
    pub id: u64,
    /// Human-readable track label (thread name or an explicit
    /// [`set_track_label`], e.g. `sweep-worker-1`).
    pub label: String,
    /// Events in recording order (timestamps are non-decreasing).
    pub events: Vec<TraceEvent>,
    /// Events rejected because the ring was full, cumulative since
    /// session [`start`]. Saturation is visible, never blocking.
    pub dropped: u64,
}

/// A drained trace: the interned name table plus one timeline per track.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Interned event names; [`TraceEvent::name`] indexes into this.
    pub names: Vec<String>,
    /// Per-thread timelines, ordered by track id.
    pub tracks: Vec<TrackTrace>,
}

impl Trace {
    /// Total number of events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Total dropped-event count across all tracks.
    pub fn dropped_total(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).fold(0, u64::saturating_add)
    }

    /// True when no track recorded anything.
    pub fn is_empty(&self) -> bool {
        self.tracks.iter().all(|t| t.events.is_empty())
    }

    /// Resolves an interned name id, or a placeholder for out-of-range
    /// ids (only possible in hand-built traces).
    pub fn name(&self, id: u32) -> &str {
        self.names.get(id as usize).map_or("?", String::as_str)
    }

    /// Merges partial traces (e.g. periodic [`drain`]s of one session)
    /// into one. Tracks with the same id concatenate their events in
    /// part order; drop counts are cumulative per session, so the
    /// maximum is kept; the largest name table wins (it is append-only).
    pub fn merge(parts: impl IntoIterator<Item = Trace>) -> Trace {
        let mut names: Vec<String> = Vec::new();
        let mut by_id: BTreeMap<u64, TrackTrace> = BTreeMap::new();
        for part in parts {
            if part.names.len() > names.len() {
                names = part.names;
            }
            for track in part.tracks {
                match by_id.entry(track.id) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(track);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let merged = e.get_mut();
                        merged.events.extend(track.events);
                        merged.dropped = merged.dropped.max(track.dropped);
                        if !track.label.is_empty() {
                            merged.label = track.label;
                        }
                    }
                }
            }
        }
        Trace { names, tracks: by_id.into_values().collect() }
    }

    /// Checks the well-formedness contract every drained trace must
    /// satisfy: every name id resolves, timestamps are non-decreasing
    /// per track, and begin/end events balance with matching names
    /// (LIFO). Returns the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for track in &self.tracks {
            let mut prev_ts = 0u64;
            let mut stack: Vec<u32> = Vec::new();
            for (i, ev) in track.events.iter().enumerate() {
                if ev.name as usize >= self.names.len() {
                    return Err(format!(
                        "track {} ({}): event {i} references unknown name id {}",
                        track.id, track.label, ev.name
                    ));
                }
                if ev.ts_ns < prev_ts {
                    return Err(format!(
                        "track {} ({}): event {i} timestamp {} precedes {}",
                        track.id, track.label, ev.ts_ns, prev_ts
                    ));
                }
                prev_ts = ev.ts_ns;
                match ev.kind {
                    TraceEventKind::Begin => stack.push(ev.name),
                    TraceEventKind::End => match stack.pop() {
                        Some(open) if open == ev.name => {}
                        Some(open) => {
                            return Err(format!(
                                "track {} ({}): end '{}' closes open span '{}'",
                                track.id,
                                track.label,
                                self.name(ev.name),
                                self.name(open)
                            ));
                        }
                        None => {
                            return Err(format!(
                                "track {} ({}): end '{}' without a matching begin",
                                track.id,
                                track.label,
                                self.name(ev.name)
                            ));
                        }
                    },
                    TraceEventKind::Instant | TraceEventKind::Counter => {}
                }
            }
            if !stack.is_empty() {
                return Err(format!(
                    "track {} ({}): {} unclosed span(s), innermost '{}'",
                    track.id,
                    track.label,
                    stack.len(),
                    stack.last().map_or("?", |&n| self.name(n))
                ));
            }
        }
        Ok(())
    }

    /// Exports the trace as Chrome Trace Event JSON (object form), one
    /// named thread per track, loadable in Perfetto or `chrome://tracing`.
    ///
    /// Schema per event: `ph` is `B`/`E` (span), `i` (instant, thread
    /// scope) or `C` (counter); `ts` is microseconds (fractional) since
    /// the trace epoch; `pid` is always 1; `tid` is the track id. Track
    /// labels are emitted as `thread_name` metadata events, and the
    /// total dropped-event count as `otherData.dropped_events`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.event_count() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let emit = |out: &mut String, first: &mut bool, body: &str| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(body);
        };
        emit(
            &mut out,
            &mut first,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"trajc\"}}",
        );
        for track in &self.tracks {
            let mut meta = String::new();
            meta.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            meta.push_str(&track.id.to_string());
            meta.push_str(",\"args\":{\"name\":\"");
            push_json_escaped(&mut meta, &track.label);
            meta.push_str("\"}}");
            emit(&mut out, &mut first, &meta);
            for ev in &track.events {
                let mut body = String::with_capacity(96);
                body.push_str("{\"name\":\"");
                push_json_escaped(&mut body, self.name(ev.name));
                body.push_str("\",\"cat\":\"trajc\",\"ph\":\"");
                body.push_str(match ev.kind {
                    TraceEventKind::Begin => "B",
                    TraceEventKind::End => "E",
                    TraceEventKind::Instant => "i",
                    TraceEventKind::Counter => "C",
                });
                body.push_str("\",\"pid\":1,\"tid\":");
                body.push_str(&track.id.to_string());
                body.push_str(",\"ts\":");
                push_ts_us(&mut body, ev.ts_ns);
                match ev.kind {
                    TraceEventKind::Instant => {
                        body.push_str(",\"s\":\"t\",\"args\":{\"value\":");
                        body.push_str(&ev.value.to_string());
                        body.push('}');
                    }
                    TraceEventKind::Counter => {
                        body.push_str(",\"args\":{\"value\":");
                        body.push_str(&ev.value.to_string());
                        body.push('}');
                    }
                    TraceEventKind::Begin if ev.value != 0 => {
                        body.push_str(",\"args\":{\"value\":");
                        body.push_str(&ev.value.to_string());
                        body.push('}');
                    }
                    TraceEventKind::Begin | TraceEventKind::End => {}
                }
                body.push('}');
                emit(&mut out, &mut first, &body);
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":\"");
        out.push_str(&self.dropped_total().to_string());
        out.push_str("\"}}\n");
        out
    }

    /// Exports the trace as folded-stack text for flamegraph tooling:
    /// one line per distinct stack, `label;outer;inner self_ns`, where
    /// the count is the stack's **self time** in nanoseconds (total span
    /// time minus time attributed to child spans). Instants and counter
    /// samples are omitted; unbalanced tails (spans still open at drain
    /// time) contribute nothing.
    pub fn to_folded(&self) -> String {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for track in &self.tracks {
            // (name, begin_ts, ns attributed to completed children)
            let mut stack: Vec<(u32, u64, u64)> = Vec::new();
            for ev in &track.events {
                match ev.kind {
                    TraceEventKind::Begin => stack.push((ev.name, ev.ts_ns, 0)),
                    TraceEventKind::End => {
                        let Some((name, begin_ts, child_ns)) = stack.pop() else {
                            continue;
                        };
                        let total = ev.ts_ns.saturating_sub(begin_ts);
                        let self_ns = total.saturating_sub(child_ns);
                        if let Some(parent) = stack.last_mut() {
                            parent.2 = parent.2.saturating_add(total);
                        }
                        let mut key = String::new();
                        push_folded_frame(&mut key, &track.label);
                        for &(frame, _, _) in &stack {
                            key.push(';');
                            push_folded_frame(&mut key, self.name(frame));
                        }
                        key.push(';');
                        push_folded_frame(&mut key, self.name(name));
                        let slot = agg.entry(key).or_insert(0);
                        *slot = slot.saturating_add(self_ns);
                    }
                    TraceEventKind::Instant | TraceEventKind::Counter => {}
                }
            }
        }
        let mut out = String::new();
        for (key, ns) in &agg {
            out.push_str(key);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
        out
    }
}

/// Appends one stack frame to a folded-stack key, replacing the two
/// characters the format reserves (`;` separates frames, space separates
/// the count).
fn push_folded_frame(out: &mut String, frame: &str) {
    for c in frame.chars() {
        out.push(match c {
            ';' => ':',
            ' ' => '_',
            c => c,
        });
    }
}

/// Appends `ts_ns` as fractional microseconds (`123.456`).
fn push_ts_us(out: &mut String, ts_ns: u64) {
    out.push_str(&(ts_ns / 1_000).to_string());
    out.push('.');
    out.push_str(&format!("{:03}", ts_ns % 1_000));
}

fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(feature = "enabled")]
mod recorder {
    use super::{Trace, TraceEvent, TraceEventKind, TrackTrace};
    use crate::Histogram;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::marker::PhantomData;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    /// Default per-track ring capacity (events). At 24 bytes/event a
    /// track costs ~384 KiB once it records its first event.
    pub const DEFAULT_CAPACITY: usize = 16 * 1024;

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

    /// One ring slot: three words, written by the owning thread and
    /// published via the track's `len` (release) to drains (acquire).
    #[derive(Debug)]
    struct Slot {
        w0: AtomicU64,
        w1: AtomicU64,
        w2: AtomicU64,
    }

    #[derive(Debug)]
    pub(super) struct Track {
        id: u64,
        label: Mutex<String>,
        /// Allocated on the first recorded event, with the session
        /// capacity current at that moment.
        ring: OnceLock<Box<[Slot]>>,
        /// Events ever published (monotone). Writer-owned; release-stored
        /// to publish slot payloads to drains.
        len: AtomicU64,
        /// Events ever consumed (monotone). Drain-owned; release-stored
        /// to hand slots back to the writer.
        drained: AtomicU64,
        /// Slots reserved for the `End` events of accepted `Begin`s.
        /// Only the owning thread touches it.
        reserved: AtomicU64,
        /// Events rejected because the ring was full (cumulative per
        /// session; reset by `start`).
        dropped: AtomicU64,
    }

    impl Track {
        fn ring(&self) -> &[Slot] {
            self.ring.get_or_init(|| {
                // Relaxed ordering: capacity is set before ACTIVE flips on
                // and is advisory thereafter; any racing value is a valid
                // capacity.
                let cap = CAPACITY.load(Ordering::Relaxed).max(8);
                (0..cap)
                    .map(|_| Slot {
                        w0: AtomicU64::new(0),
                        w1: AtomicU64::new(0),
                        w2: AtomicU64::new(0),
                    })
                    .collect()
            })
        }

        /// Writes one event stamped `ts_ns` into the next slot and
        /// publishes it. Caller guarantees a free slot. Owning thread only.
        fn write(&self, len: u64, kind: TraceEventKind, name: u32, value: u64, ts_ns: u64) {
            let ring = self.ring();
            let cap = ring.len() as u64;
            let slot = &ring[(len % cap) as usize];
            let packed = (kind.as_u64() << 32) | u64::from(name);
            // Relaxed ordering on the payload words: the release store of
            // `len` below is the publication point; a drain's acquire load
            // of `len` makes these visible before it reads them.
            slot.w0.store(packed, Ordering::Relaxed);
            slot.w1.store(ts_ns, Ordering::Relaxed); // ordering: relaxed payload, published by `len` below
            slot.w2.store(value, Ordering::Relaxed); // ordering: relaxed payload, published by `len` below
            // Release ordering: publishes the three payload stores above to
            // the drain's acquire load of `len`.
            self.len.store(len + 1, Ordering::Release);
        }

        /// Attempts to record an event, reserving `extra_reserve` further
        /// slots (a `Begin` reserves one for its `End`). Returns false —
        /// and counts a drop — when the ring is full. Owning thread only.
        fn try_push(
            &self,
            kind: TraceEventKind,
            name: u32,
            value: u64,
            ts_ns: u64,
            extra_reserve: u64,
        ) -> bool {
            let ring = self.ring();
            let cap = ring.len() as u64;
            // Relaxed ordering: `len` and `reserved` are only written by
            // this (owning) thread, so these reads are exact.
            let len = self.len.load(Ordering::Relaxed);
            let reserved = self.reserved.load(Ordering::Relaxed); // ordering: relaxed, writer-owned (see above)
            // Acquire ordering: pairs with the drain's release store of
            // `drained`, so a slot is only reused after the drain has
            // finished reading it.
            let drained = self.drained.load(Ordering::Acquire);
            if (len - drained) + reserved + 1 + extra_reserve > cap {
                // Relaxed ordering: advisory drop count.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if extra_reserve > 0 {
                // Relaxed ordering: writer-owned reservation count.
                self.reserved.fetch_add(extra_reserve, Ordering::Relaxed);
            }
            self.write(len, kind, name, value, ts_ns);
            true
        }

        /// Records the `End` for an accepted `Begin`; the reservation made
        /// then guarantees the slot. Owning thread only.
        fn push_end(&self, name: u32, ts_ns: u64) {
            // Relaxed ordering: `len`/`reserved` are writer-owned.
            let len = self.len.load(Ordering::Relaxed);
            self.reserved.fetch_sub(1, Ordering::Relaxed); // ordering: relaxed, writer-owned (see above)
            self.write(len, TraceEventKind::End, name, 0, ts_ns);
        }

        /// Consumes every published-but-undrained event. Callers hold the
        /// global drain lock, so `drained` cannot move concurrently.
        fn drain_events(&self) -> Vec<TraceEvent> {
            let Some(ring) = self.ring.get() else {
                return Vec::new();
            };
            let cap = ring.len() as u64;
            // Acquire ordering: pairs with the writer's release store of
            // `len`, making the slot payload words visible below.
            let len = self.len.load(Ordering::Acquire);
            // Relaxed ordering: `drained` only moves under the drain lock
            // we hold.
            let drained = self.drained.load(Ordering::Relaxed);
            let mut out = Vec::with_capacity((len - drained) as usize);
            for i in drained..len {
                let slot = &ring[(i % cap) as usize];
                // Relaxed ordering on payload reads: ordered by the
                // acquire load of `len` above.
                let w0 = slot.w0.load(Ordering::Relaxed);
                let ts_ns = slot.w1.load(Ordering::Relaxed); // ordering: relaxed payload read (see above)
                let value = slot.w2.load(Ordering::Relaxed); // ordering: relaxed payload read (see above)
                let Some(kind) = TraceEventKind::from_u64(w0 >> 32) else {
                    continue;
                };
                out.push(TraceEvent { kind, name: (w0 & 0xFFFF_FFFF) as u32, ts_ns, value });
            }
            // Release ordering: hands the consumed slots back to the
            // writer's acquire load of `drained` in `try_push`.
            self.drained.store(len, Ordering::Release);
            out
        }
    }

    fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Process-wide trace epoch; timestamps are nanoseconds since the
    /// first trace activity, monotone across sessions.
    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    fn now_ns() -> u64 {
        u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    struct Interner {
        names: Vec<&'static str>,
        index: HashMap<&'static str, u32>,
    }

    fn interner() -> &'static Mutex<Interner> {
        static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
        INTERNER.get_or_init(|| Mutex::new(Interner { names: Vec::new(), index: HashMap::new() }))
    }

    /// Interns an event name, returning its stable string-table id. The
    /// table is append-only for the process lifetime, so ids cached in
    /// call-site statics stay valid across sessions.
    pub fn intern(name: &'static str) -> u32 {
        let mut table = lock_or_recover(interner());
        if let Some(&id) = table.index.get(name) {
            return id;
        }
        // Saturation at u32::MAX merges all further names into one slot;
        // unreachable in practice (call sites are finite).
        let id = u32::try_from(table.names.len()).unwrap_or(u32::MAX);
        table.names.push(name);
        table.index.insert(name, id);
        id
    }

    fn collector() -> &'static Mutex<Vec<Arc<Track>>> {
        static COLLECTOR: OnceLock<Mutex<Vec<Arc<Track>>>> = OnceLock::new();
        COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static TRACK: RefCell<Option<Arc<Track>>> = const { RefCell::new(None) };
    }

    fn register_track() -> Arc<Track> {
        let mut tracks = lock_or_recover(collector());
        let id = tracks.len() as u64;
        let label = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{id}"), str::to_string);
        let track = Arc::new(Track {
            id,
            label: Mutex::new(label),
            ring: OnceLock::new(),
            len: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            reserved: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        });
        tracks.push(Arc::clone(&track));
        track
    }

    fn with_track<R>(f: impl FnOnce(&Arc<Track>) -> R) -> Option<R> {
        TRACK
            .try_with(|cell| {
                if cell.borrow().is_none() {
                    *cell.borrow_mut() = Some(register_track());
                }
                cell.borrow().as_ref().map(f)
            })
            .ok()
            .flatten()
    }

    /// Whether a trace session is currently recording.
    #[inline]
    pub fn is_active() -> bool {
        // Relaxed ordering: the flag is advisory; events racing a stop
        // are either recorded (drained later) or not.
        ACTIVE.load(Ordering::Relaxed)
    }

    /// Starts a trace session with [`DEFAULT_CAPACITY`] rings.
    pub fn start() {
        start_with_capacity(DEFAULT_CAPACITY);
    }

    /// Starts a trace session; rings allocated from here on hold
    /// `capacity` events (minimum 8). Discards any undrained events and
    /// resets drop counts, so the session starts clean.
    pub fn start_with_capacity(capacity: usize) {
        // Relaxed ordering: advisory configuration, read by lazy ring
        // allocation.
        CAPACITY.store(capacity.max(8), Ordering::Relaxed);
        let _discarded = drain();
        let tracks: Vec<Arc<Track>> = lock_or_recover(collector()).clone();
        for t in &tracks {
            // Relaxed ordering: session boundary bookkeeping; no recorder
            // should be running concurrently with start().
            t.dropped.store(0, Ordering::Relaxed);
        }
        // Relaxed ordering: flag flip; recorders sample it with a relaxed
        // load (see is_active).
        ACTIVE.store(true, Ordering::Relaxed);
    }

    /// Stops the session and returns everything recorded since the last
    /// drain.
    pub fn stop() -> Trace {
        // Relaxed ordering: flag flip, see is_active.
        ACTIVE.store(false, Ordering::Relaxed);
        drain()
    }

    /// Harvests all published-but-undrained events from every track
    /// without stopping the session. Concurrent drains are serialized;
    /// each event is observed exactly once. Tracks that recorded nothing
    /// (and dropped nothing) are omitted.
    pub fn drain() -> Trace {
        static DRAIN: Mutex<()> = Mutex::new(());
        let _serialize = lock_or_recover(&DRAIN);
        let tracks: Vec<Arc<Track>> = lock_or_recover(collector()).clone();
        let names: Vec<String> = lock_or_recover(interner())
            .names
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let mut out = Vec::new();
        for t in tracks {
            let events = t.drain_events();
            // Relaxed ordering: advisory count read.
            let dropped = t.dropped.load(Ordering::Relaxed);
            if events.is_empty() && dropped == 0 {
                continue;
            }
            let label = lock_or_recover(&t.label).clone();
            out.push(TrackTrace { id: t.id, label, events, dropped });
        }
        Trace { names, tracks: out }
    }

    /// Names the calling thread's track (e.g. `sweep-worker-1`) for the
    /// Chrome export. No-op when no session is active.
    pub fn set_track_label(label: &str) {
        if !is_active() {
            return;
        }
        let _ = with_track(|t| {
            *lock_or_recover(&t.label) = label.to_string();
        });
    }

    /// One [`trace_span!`](crate::trace_span) call site: its interned
    /// name and its `span.<name>` histogram. Macro plumbing, public only
    /// because the macro expands in other crates (one `static` per site).
    #[derive(Debug)]
    pub struct SpanSite {
        name: u32,
        histogram: Histogram,
    }

    impl SpanSite {
        /// Interns `name` and registers its `span.<name>` histogram.
        pub fn new(name: &'static str) -> Self {
            SpanSite { name: intern(name), histogram: crate::registry().histogram("span", name) }
        }
    }

    /// Guard closing a span on drop: it records end − begin into the
    /// site's `span.<name>` histogram and, if the trace accepted the
    /// `Begin`, writes the `End` at that same end timestamp. `!Send`: the
    /// `End` event must land on the track that recorded the `Begin`.
    #[must_use = "the span closes when the guard drops"]
    #[derive(Debug)]
    pub struct TraceSpanGuard {
        site: Option<&'static SpanSite>,
        begin_ns: u64,
        track: Option<Arc<Track>>,
        _single_thread: PhantomData<*const ()>,
    }

    impl TraceSpanGuard {
        /// A guard that records nothing (the branch `trace_span!` takes
        /// when instrumentation is compiled out).
        #[inline]
        pub fn inert() -> Self {
            TraceSpanGuard { site: None, begin_ns: 0, track: None, _single_thread: PhantomData }
        }
    }

    impl Drop for TraceSpanGuard {
        fn drop(&mut self) {
            let Some(site) = self.site else {
                return;
            };
            let end_ns = now_ns();
            site.histogram.record(end_ns.saturating_sub(self.begin_ns));
            if let Some(track) = self.track.take() {
                track.push_end(site.name, end_ns);
            }
        }
    }

    /// Opens a span at `site` whose `Begin` carries `value`, reading the
    /// clock here and once more when the guard drops. The histogram
    /// records every span; a full ring drops only its trace events
    /// (counted once), so traces stay balanced.
    pub fn span_with(site: &'static SpanSite, value: u64) -> TraceSpanGuard {
        let begin_ns = now_ns();
        let track = if is_active() {
            with_track(|t| {
                t.try_push(TraceEventKind::Begin, site.name, value, begin_ns, 1)
                    .then(|| Arc::clone(t))
            })
            .flatten()
        } else {
            None
        };
        TraceSpanGuard { site: Some(site), begin_ns, track, _single_thread: PhantomData }
    }

    /// Records an instant event carrying `value`.
    pub fn instant(name: u32, value: u64) {
        if !is_active() {
            return;
        }
        let _ = with_track(|t| t.try_push(TraceEventKind::Instant, name, value, now_ns(), 0));
    }

    /// Records a counter sample (rendered as a counter track in the
    /// Chrome export).
    pub fn counter_sample(name: u32, value: u64) {
        if !is_active() {
            return;
        }
        let _ = with_track(|t| t.try_push(TraceEventKind::Counter, name, value, now_ns(), 0));
    }
}

#[cfg(not(feature = "enabled"))]
mod recorder {
    use super::Trace;

    /// Default per-track ring capacity (unused when compiled out).
    pub const DEFAULT_CAPACITY: usize = 16 * 1024;

    /// No-op.
    #[inline(always)]
    pub fn start() {}

    /// No-op.
    #[inline(always)]
    pub fn start_with_capacity(_capacity: usize) {}

    /// Always returns an empty trace.
    #[inline(always)]
    pub fn stop() -> Trace {
        Trace::default()
    }

    /// Always returns an empty trace.
    #[inline(always)]
    pub fn drain() -> Trace {
        Trace::default()
    }

    /// Always false.
    #[inline(always)]
    pub fn is_active() -> bool {
        false
    }

    /// Always 0.
    #[inline(always)]
    pub fn intern(_name: &'static str) -> u32 {
        0
    }

    /// No-op.
    #[inline(always)]
    pub fn set_track_label(_label: &str) {}

    /// Disabled span site; holds nothing.
    #[derive(Debug)]
    pub struct SpanSite;

    impl SpanSite {
        /// The empty site.
        #[inline(always)]
        pub fn new(_name: &'static str) -> Self {
            SpanSite
        }
    }

    /// Inert guard; dropping it does nothing.
    #[derive(Debug)]
    pub struct TraceSpanGuard;

    impl TraceSpanGuard {
        /// The inert guard.
        #[inline(always)]
        pub fn inert() -> Self {
            TraceSpanGuard
        }
    }

    /// Returns an inert guard.
    #[inline(always)]
    pub fn span_with(_site: &'static SpanSite, _value: u64) -> TraceSpanGuard {
        TraceSpanGuard
    }

    /// No-op.
    #[inline(always)]
    pub fn instant(_name: u32, _value: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn counter_sample(_name: u32, _value: u64) {}
}

pub use recorder::{
    counter_sample, drain, instant, intern, is_active, set_track_label, span_with, start,
    start_with_capacity, stop, SpanSite, TraceSpanGuard, DEFAULT_CAPACITY,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that start/stop/drain the global recorder.
    #[cfg(feature = "enabled")]
    fn session_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A leaked span site, as `trace_span!` keeps one per call site.
    #[cfg(feature = "enabled")]
    fn site(name: &'static str) -> &'static SpanSite {
        Box::leak(Box::new(SpanSite::new(name)))
    }

    fn ev(kind: TraceEventKind, name: u32, ts_ns: u64) -> TraceEvent {
        TraceEvent { kind, name, ts_ns, value: 0 }
    }

    fn two_name_trace(events: Vec<TraceEvent>) -> Trace {
        Trace {
            names: vec!["outer".to_string(), "inner".to_string()],
            tracks: vec![TrackTrace { id: 0, label: "main".to_string(), events, dropped: 0 }],
        }
    }

    #[test]
    fn validate_accepts_balanced_nesting() {
        let t = two_name_trace(vec![
            ev(TraceEventKind::Begin, 0, 10),
            ev(TraceEventKind::Begin, 1, 20),
            ev(TraceEventKind::Instant, 1, 25),
            ev(TraceEventKind::End, 1, 30),
            ev(TraceEventKind::End, 0, 40),
        ]);
        assert_eq!(t.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_unbalanced_and_misnested() {
        let open = two_name_trace(vec![ev(TraceEventKind::Begin, 0, 10)]);
        assert!(open.validate().is_err());
        let stray = two_name_trace(vec![ev(TraceEventKind::End, 0, 10)]);
        assert!(stray.validate().is_err());
        let crossed = two_name_trace(vec![
            ev(TraceEventKind::Begin, 0, 10),
            ev(TraceEventKind::Begin, 1, 20),
            ev(TraceEventKind::End, 0, 30),
        ]);
        assert!(crossed.validate().is_err());
    }

    #[test]
    fn validate_rejects_time_travel_and_bad_names() {
        let backwards = two_name_trace(vec![
            ev(TraceEventKind::Instant, 0, 20),
            ev(TraceEventKind::Instant, 0, 10),
        ]);
        assert!(backwards.validate().is_err());
        let unknown = two_name_trace(vec![ev(TraceEventKind::Instant, 7, 10)]);
        assert!(unknown.validate().is_err());
    }

    #[test]
    fn folded_attributes_self_time() {
        let t = two_name_trace(vec![
            ev(TraceEventKind::Begin, 0, 0),
            ev(TraceEventKind::Begin, 1, 100),
            ev(TraceEventKind::End, 1, 400),
            ev(TraceEventKind::End, 0, 1000),
        ]);
        let folded = t.to_folded();
        assert!(folded.contains("main;outer 700\n"), "{folded}");
        assert!(folded.contains("main;outer;inner 300\n"), "{folded}");
    }

    #[test]
    fn folded_escapes_reserved_characters() {
        let mut t = two_name_trace(vec![
            ev(TraceEventKind::Begin, 0, 0),
            ev(TraceEventKind::End, 0, 10),
        ]);
        t.names[0] = "a b;c".to_string();
        assert!(t.to_folded().contains("main;a_b:c 10\n"), "{}", t.to_folded());
    }

    #[test]
    fn chrome_json_has_thread_names_and_pairs() {
        let t = two_name_trace(vec![
            ev(TraceEventKind::Begin, 0, 1_500),
            ev(TraceEventKind::End, 0, 2_500),
        ]);
        let json = t.to_chrome_json();
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"name\":\"main\""), "{json}");
        assert!(json.contains("\"ph\":\"B\""), "{json}");
        assert!(json.contains("\"ph\":\"E\""), "{json}");
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dropped_events\":\"0\""), "{json}");
    }

    #[test]
    fn merge_concatenates_partial_drains() {
        let part1 = two_name_trace(vec![ev(TraceEventKind::Begin, 0, 10)]);
        let mut part2 = two_name_trace(vec![ev(TraceEventKind::End, 0, 20)]);
        part2.tracks[0].dropped = 3;
        let merged = Trace::merge([part1, part2]);
        assert_eq!(merged.tracks.len(), 1);
        assert_eq!(merged.tracks[0].events.len(), 2);
        assert_eq!(merged.tracks[0].dropped, 3);
        assert_eq!(merged.validate(), Ok(()));
    }

    #[test]
    #[cfg(feature = "enabled")]
    fn session_records_spans_instants_and_counters() {
        let _serial = session_lock();
        start_with_capacity(256);
        set_track_label("trace-unit-test");
        {
            let _outer = span_with(site("unit.outer"), 42);
            let _inner = span_with(site("unit.inner"), 0);
            instant(intern("unit.mark"), 7);
            counter_sample(intern("unit.level"), 3);
        }
        let trace = stop();
        assert_eq!(trace.validate(), Ok(()));
        let track = trace
            .tracks
            .iter()
            .find(|t| t.label == "trace-unit-test")
            .expect("track recorded on this thread");
        assert_eq!(track.dropped, 0);
        let kinds: Vec<TraceEventKind> = track.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceEventKind::Begin));
        assert!(kinds.contains(&TraceEventKind::Instant));
        assert!(kinds.contains(&TraceEventKind::Counter));
        let names: Vec<&str> = track.events.iter().map(|e| trace.name(e.name)).collect();
        assert!(names.contains(&"unit.outer"), "{names:?}");
        assert!(names.contains(&"unit.mark"), "{names:?}");
    }

    /// `(count, sum)` of the `span.<name>` histogram now.
    #[cfg(feature = "enabled")]
    fn histogram_totals(name: &str) -> (u64, u64) {
        let s = crate::registry().histogram("span", name).summary();
        (s.count, s.sum)
    }

    /// `(ends, Σ End.ts − Begin.ts)` of the spans named `name`, pairing
    /// each `End` with its `Begin` in LIFO order.
    #[cfg(feature = "enabled")]
    fn trace_totals(trace: &Trace, name: &str) -> (u64, u64) {
        let (mut ends, mut sum) = (0, 0);
        for track in &trace.tracks {
            let mut open = Vec::new();
            for e in track.events.iter().filter(|e| trace.name(e.name) == name) {
                match e.kind {
                    TraceEventKind::Begin => open.push(e.ts_ns),
                    TraceEventKind::End => {
                        ends += 1;
                        sum += e.ts_ns - open.pop().expect("balanced trace");
                    }
                    TraceEventKind::Instant | TraceEventKind::Counter => {}
                }
            }
        }
        (ends, sum)
    }

    #[test]
    #[cfg(feature = "enabled")]
    fn span_histogram_is_the_traced_begin_end_pairs() {
        let _serial = session_lock();
        let pair = site("unit.pair");
        let before = histogram_totals("unit.pair");
        start_with_capacity(256);
        for i in 0..5 {
            let _outer = span_with(pair, i);
            let _inner = span_with(pair, i);
            std::hint::black_box(i);
        }
        let trace = stop();
        assert_eq!(trace.validate(), Ok(()));
        let after = histogram_totals("unit.pair");
        let (ends, sum) = trace_totals(&trace, "unit.pair");
        assert_eq!(ends, 10);
        assert_eq!((after.0 - before.0, after.1 - before.1), (ends, sum));
    }

    #[test]
    #[cfg(feature = "enabled")]
    fn saturation_drops_whole_spans_and_counts_them() {
        let _serial = session_lock();
        let saturate = site("unit.saturate");
        let before = histogram_totals("unit.saturate");
        start_with_capacity(8);
        let guards: Vec<TraceSpanGuard> = (0..32).map(|_| span_with(saturate, 0)).collect();
        guards.into_iter().rev().for_each(drop);
        let trace = stop();
        assert_eq!(trace.validate(), Ok(()), "drops must never unbalance");
        assert_eq!(histogram_totals("unit.saturate").0 - before.0, 32);
        let track = trace
            .tracks
            .iter()
            .find(|t| t.events.iter().any(|e| trace.name(e.name) == "unit.saturate"));
        let track = track.expect("at least the accepted spans are present");
        assert!(track.dropped > 0, "expected drops at capacity 8");
        let begins = track
            .events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Begin)
            .count();
        let ends = track
            .events
            .iter()
            .filter(|e| e.kind == TraceEventKind::End)
            .count();
        assert_eq!(begins, ends);
        assert!(ends < 32);
    }

    #[test]
    #[cfg(feature = "enabled")]
    fn inactive_recorder_records_nothing() {
        let _serial = session_lock();
        let _ = stop();
        let ignored = site("unit.ignored_span");
        let before = histogram_totals("unit.ignored_span");
        let drained = drain();
        instant(intern("unit.ignored"), 1);
        drop(span_with(ignored, 0));
        let after = drain();
        assert_eq!(drained.event_count(), 0);
        assert_eq!(after.event_count(), 0);
        assert_eq!(histogram_totals("unit.ignored_span").0 - before.0, 1);
    }
}
