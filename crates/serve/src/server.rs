//! The threaded multi-tenant server: bounded queue, shape-class batching,
//! engine replicas, per-tenant SLO enforcement — plus the self-healing
//! layer: a supervisor thread with per-replica heartbeats (stalled
//! replicas are condemned and rebuilt via `fork_replica`, never wedging
//! the server), deterministic retry with budgeted exponential backoff for
//! transient fault-class failures, per-tenant circuit breakers, and
//! predictive admission control priced from the static cost model.

use crate::batch::{shape_class_of, take_batch, ShapeClassKey};
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::ServeError;
use sod2_frameworks::{CostPrediction, Engine, Sod2Engine};
use sod2_runtime::ExecError;
use sod2_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A registered tenant and its service-level contract.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name; the submission key.
    pub name: String,
    /// Per-inference wall-clock deadline. Enforced cooperatively by the
    /// engine; a miss fails that request with
    /// [`sod2_runtime::ExecError::DeadlineExceeded`] and leaves the
    /// replica serving the next request. With
    /// [`ServerConfig::predictive_admission`] on, the same bound is also
    /// checked at submit time against the static cost-model price.
    pub deadline: Option<Duration>,
    /// Per-inference intermediate-memory budget (bytes). Enforced against
    /// the DMP pre-plan at admission and live allocations at runtime;
    /// exceeding it fails with a typed
    /// [`sod2_runtime::ExecError::BudgetExceeded`].
    pub memory_budget: Option<usize>,
    /// How many times a *transient fault-class* failure (kernel error,
    /// caught panic, numeric fault, memory fault, detected stall — never
    /// an SLO rejection) is retried on a healthy replica before the typed
    /// error is returned. Each retry waits out an exponential backoff
    /// ([`ServerConfig::retry_backoff`] × 2ᵃᵗᵗᵉᵐᵖᵗ). 0 (the default)
    /// disables retries.
    pub retry_budget: u32,
}

impl TenantSpec {
    /// A tenant with no SLO constraints and no retry budget.
    pub fn new(name: impl Into<String>) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            deadline: None,
            memory_budget: None,
            retry_budget: 0,
        }
    }

    /// Sets the per-inference deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> TenantSpec {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the per-inference memory budget in bytes.
    #[must_use]
    pub fn with_memory_budget(mut self, bytes: usize) -> TenantSpec {
        self.memory_budget = Some(bytes);
        self
    }

    /// Sets the transient-failure retry budget.
    #[must_use]
    pub fn with_retry_budget(mut self, retries: u32) -> TenantSpec {
        self.retry_budget = retries;
        self
    }
}

/// Mid-traffic fault injection for chaos testing: every request from
/// `tenant` runs with the given `sod2-faults` plan installed (seeded per
/// request sequence number, so each faulted request is independently
/// deterministic), cleared again before the next request.
///
/// Injected faults model *transient* faults: the plan is armed only on a
/// request's **first** attempt, so a retry after a fault runs clean — which
/// is what lets the chaos harness assert retried outputs bitwise-identical
/// to fault-free runs (and keeps `nth=1` stall plans from re-stalling every
/// retry forever).
///
/// The fault fabric is process-global, so attribution of a fault to the
/// tenant being executed requires that no other inference runs
/// concurrently: [`Server::start`] therefore requires `replicas == 1`
/// when an injector is configured.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// The tenant whose requests are faulted.
    pub tenant: String,
    /// Fault rules in [`sod2_faults::FaultPlan::parse`] grammar, without
    /// the `seed=` prefix (the injector adds one per request).
    pub spec: String,
    /// Base seed; request `seq` runs with `seed + seq`.
    pub seed: u64,
    /// Arm only the first `limit` victim requests (None = all). Lets
    /// tests fault a tenant for a while and then watch it recover.
    pub limit: Option<u64>,
}

/// Server sizing and policy.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine replicas (worker threads). Each is stamped out via
    /// [`Sod2Engine::fork_replica`] — the execution tape stays
    /// `Arc`-shared; each replica brings its own register files. `0`
    /// starts no workers (admission-control-only mode, used by tests to
    /// observe queue behaviour; use [`Server::try_submit`] there, blocking
    /// submission would never drain).
    pub replicas: usize,
    /// Bounded queue capacity; admissions beyond it are rejected with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum requests per shape-class batch.
    pub max_batch: usize,
    /// Optional chaos-mode fault injection (see [`FaultInjector`]).
    pub fault_injector: Option<FaultInjector>,
    /// Replica supervision: when set, a replica busy on one request for
    /// longer than this is condemned (its batch stolen and
    /// retried/re-queued) and replaced by a fresh fork of the template —
    /// a wedged replica never wedges the server. `None` (the default)
    /// disables stall detection; pick a timeout comfortably above the
    /// slowest legitimate request, since a falsely condemned request is
    /// retried (bitwise-identically) but charges its tenant's retry
    /// budget.
    pub stall_timeout: Option<Duration>,
    /// Base backoff before a transient failure's first retry; attempt `k`
    /// waits `retry_backoff × 2ᵏ`. Backoffs are waited out off-replica (a
    /// parked list the supervisor drains), so a backing-off request never
    /// holds a replica.
    pub retry_backoff: Duration,
    /// Per-tenant circuit breakers (see [`crate::CircuitBreaker`]); `None`
    /// disables breaking. Breaker clocks run on wall seconds since server
    /// start.
    pub breaker: Option<BreakerConfig>,
    /// Price each request's shape class at submit time via
    /// [`Sod2Engine::predict`] and reject with typed
    /// [`ServeError::PredictedDeadlineMiss`] /
    /// [`ServeError::PredictedBudgetExceeded`] *before* consuming a
    /// replica. Deadlines are interpreted against the device cost model's
    /// clock (predicted seconds are priced, not wall). Off by default: the
    /// in-engine checks then remain the only SLO enforcement.
    pub predictive_admission: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            replicas: 2,
            queue_capacity: 64,
            max_batch: 8,
            fault_injector: None,
            stall_timeout: None,
            retry_backoff: Duration::from_millis(1),
            breaker: None,
            predictive_admission: false,
        }
    }
}

/// The server's lifetime counters, returned by [`Server::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Submission attempts (including rejected ones).
    pub submitted: u64,
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Typed [`ServeError::QueueFull`] rejections.
    pub rejected_queue_full: u64,
    /// Requests completing with `Ok` outputs.
    pub completed_ok: u64,
    /// Requests completing with a typed execution error.
    pub failed: u64,
    /// Shape-class batches executed.
    pub batches: u64,
    /// Requests executed (sum of batch sizes; retries count again).
    pub executed: u64,
    /// High-water queue depth.
    pub max_queue_depth: usize,
    /// Largest batch formed.
    pub max_batch_size: usize,
    /// Replica threads that died by unrecovered panic (always 0 unless a
    /// panic escaped the runtime's catch — counted so chaos sweeps can
    /// assert the fleet stayed whole).
    pub replica_panics: usize,
    /// Transient-failure retries scheduled (each waited out a backoff).
    pub retries: u64,
    /// Fault-class failures returned because the tenant's retry budget
    /// was already spent (only counted for tenants with a budget).
    pub retries_exhausted: u64,
    /// Stalled replicas detected and condemned by the supervisor.
    pub stalls_detected: u64,
    /// Replicas rebuilt (forked from the template) after condemnation.
    pub replicas_rebuilt: u64,
    /// Requests shed with typed [`ServeError::CircuitOpen`].
    pub shed_circuit_open: u64,
    /// Predictive admission: typed deadline-miss rejections at submit.
    pub rejected_predicted_deadline: u64,
    /// Predictive admission: typed budget rejections at submit.
    pub rejected_predicted_budget: u64,
    /// [`Server::submit_timeout`] calls that gave up waiting.
    pub submit_timeouts: u64,
    /// Faults fired during any attempt (including condemned ones whose
    /// results were discarded) — the chaos harness's ground truth.
    pub faults_fired: u64,
    /// Threads the server ever spawned (replicas, rebuilds, supervisor).
    pub threads_spawned: u64,
    /// Threads joined by [`Server::shutdown`]. Equal to
    /// `threads_spawned` after a clean shutdown — the zero-leak check.
    pub threads_joined: u64,
}

/// One served request's outcome.
#[derive(Debug)]
pub struct Response {
    /// The request's global sequence number (submission order).
    pub seq: u64,
    /// Index of the owning tenant in the server's tenant table.
    pub tenant: usize,
    /// Output tensors, or a typed serving/execution error.
    pub result: Result<Vec<Tensor>, ServeError>,
    /// Which replica served it (`usize::MAX` if never executed).
    pub replica: usize,
    /// Size of the shape-class batch this request rode in (0 if never
    /// executed).
    pub batch_size: usize,
    /// Faults fired during the attempt that produced this response
    /// (chaos mode only; a clean retry after a faulted attempt reports 0).
    pub faults_fired: u64,
}

/// A claim ticket for an admitted request.
#[derive(Debug)]
pub struct Ticket {
    /// The admitted request's sequence number.
    pub seq: u64,
    tenant: usize,
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Blocks until the request completes. If the serving thread vanished
    /// without responding (it cannot, short of an escaped panic), this
    /// degrades to a typed [`ServeError::Shutdown`] response rather than
    /// wedging the caller.
    pub fn wait(self) -> Response {
        self.rx.recv().unwrap_or(Response {
            seq: self.seq,
            tenant: self.tenant,
            result: Err(ServeError::Shutdown),
            replica: usize::MAX,
            batch_size: 0,
            faults_fired: 0,
        })
    }
}

struct Pending {
    seq: u64,
    tenant: usize,
    class: ShapeClassKey,
    inputs: Vec<Tensor>,
    tx: mpsc::Sender<Response>,
    /// 0 on first execution; +1 per retry.
    attempt: u32,
}

impl Pending {
    fn respond(self, result: Result<Vec<Tensor>, ServeError>, replica: usize, batch_size: usize) {
        let _ = self.tx.send(Response {
            seq: self.seq,
            tenant: self.tenant,
            result,
            replica,
            batch_size,
            faults_fired: 0,
        });
    }
}

struct State {
    queue: VecDeque<Pending>,
    open: bool,
    stats: ServeStats,
}

/// One replica's supervision surface. The replica claims batches into
/// `inflight` and keeps each request there *while executing it*; the
/// supervisor can steal the whole deque when it condemns the replica, and
/// the replica discovers the theft when it tries to pop the front after
/// finishing — whoever holds the `Pending` owns the response, so exactly
/// one response is ever sent even when a falsely-condemned replica
/// finishes its (bitwise-identical) work late.
struct ReplicaSlot {
    id: usize,
    inflight: Mutex<VecDeque<Pending>>,
    /// Nanoseconds since server epoch when the current request began
    /// executing; 0 = idle. The supervisor's heartbeat.
    busy_since_ns: AtomicU64,
    condemned: AtomicBool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals replicas: work arrived or shutdown began.
    work: Condvar,
    /// Signals blocked submitters: queue space freed or shutdown began.
    space: Condvar,
    /// Retries waiting out their backoff; the supervisor re-queues each
    /// when its due time passes.
    parked: Mutex<Vec<(Instant, Pending)>>,
    /// Per-tenant circuit breakers (iff configured), tenant-indexed.
    breakers: Option<Vec<Mutex<CircuitBreaker>>>,
    /// Handles awaiting join: condemned replicas, and (after the
    /// supervisor exits) the whole fleet.
    graveyard: Mutex<Vec<JoinHandle<()>>>,
    /// Generation counter guarding install/clear of the process-global
    /// fault plan: a condemned replica must not clear a plan its
    /// replacement armed (each install bumps the epoch; clear only if the
    /// epoch is still yours).
    fault_epoch: AtomicU64,
    /// Victim requests armed so far ([`FaultInjector::limit`]).
    injector_armed: AtomicU64,
    /// Server birth: the base of the breaker clock and heartbeats.
    epoch: Instant,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Everything a replica thread (original or rebuilt) needs besides its
/// engine and slot.
struct Ctx {
    shared: Arc<Shared>,
    tenants: Arc<Vec<TenantSpec>>,
    injector: Option<FaultInjector>,
    max_batch: usize,
    retry_backoff: Duration,
}

fn backoff_for(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16))
}

/// Is this error a transient fault (retriable, counts toward the tenant's
/// breaker) as opposed to an SLO rejection or a caller bug?
fn is_fault_class(e: &ExecError) -> bool {
    matches!(
        e,
        ExecError::Kernel(_) | ExecError::Panic(_) | ExecError::NumericFault(_)
    )
}

/// The serving front end. See the crate docs for the execution model.
pub struct Server {
    shared: Arc<Shared>,
    tenants: Arc<Vec<TenantSpec>>,
    supervisor: Option<JoinHandle<()>>,
    next_seq: AtomicU64,
    queue_capacity: usize,
    /// Pricing engine + per-shape-class prediction cache for predictive
    /// admission (present iff `predictive_admission`). Shares the template
    /// engine the supervisor forks rebuilds from.
    pricer: Option<Pricer>,
}

/// Predictive-admission state: the pricing engine and the per-shape-class
/// prediction cache it fills.
type Pricer = (
    Arc<Mutex<Sod2Engine>>,
    Mutex<HashMap<ShapeClassKey, CostPrediction>>,
);

impl Server {
    /// Starts the server: forks `config.replicas` replicas off `template`
    /// (the template itself is retained by the supervisor as the stamp for
    /// rebuilding condemned replicas) and spawns one worker thread per
    /// replica plus the supervisor.
    ///
    /// # Panics
    ///
    /// Panics if a [`FaultInjector`] is configured with `replicas != 1`
    /// (the fault fabric is process-global; attribution requires a single
    /// executor).
    pub fn start(template: Sod2Engine, tenants: Vec<TenantSpec>, config: ServerConfig) -> Server {
        assert!(
            config.fault_injector.is_none() || config.replicas == 1,
            "fault injection requires exactly one replica: the fault fabric is process-global"
        );
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                open: true,
                stats: ServeStats::default(),
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            parked: Mutex::new(Vec::new()),
            breakers: config.breaker.map(|cfg| {
                tenants
                    .iter()
                    .map(|_| Mutex::new(CircuitBreaker::new(cfg)))
                    .collect()
            }),
            graveyard: Mutex::new(Vec::new()),
            fault_epoch: AtomicU64::new(0),
            injector_armed: AtomicU64::new(0),
            epoch: Instant::now(),
        });
        let tenants = Arc::new(tenants);
        let ctx = Arc::new(Ctx {
            shared: Arc::clone(&shared),
            tenants: Arc::clone(&tenants),
            injector: config.fault_injector.clone(),
            max_batch: config.max_batch,
            retry_backoff: config.retry_backoff,
        });
        let template = Arc::new(Mutex::new(template));
        let mut fleet = Vec::with_capacity(config.replicas);
        for id in 0..config.replicas {
            let engine = template.lock().expect("template lock").fork_replica();
            fleet.push(spawn_replica(engine, Arc::clone(&ctx), id));
        }
        sod2_obs::gauge_set("serve.replicas_healthy", config.replicas as u64);
        let supervisor = {
            let ctx = Arc::clone(&ctx);
            let template = Arc::clone(&template);
            let stall_timeout = config.stall_timeout;
            let next_id = config.replicas;
            std::thread::Builder::new()
                .name("sod2-serve-supervisor".to_string())
                .spawn(move || supervisor_loop(ctx, template, fleet, stall_timeout, next_id))
                .expect("spawn supervisor thread")
        };
        {
            let mut state = shared.state.lock().expect("serve state lock");
            state.stats.threads_spawned += config.replicas as u64 + 1;
        }
        Server {
            shared,
            tenants: Arc::clone(&tenants),
            supervisor: Some(supervisor),
            next_seq: AtomicU64::new(0),
            queue_capacity: config.queue_capacity.max(1),
            pricer: config
                .predictive_admission
                .then(|| (template, Mutex::new(HashMap::new()))),
        }
    }

    /// The registered tenant table, in index order.
    pub fn tenants(&self) -> &[TenantSpec] {
        &self.tenants
    }

    fn tenant_index(&self, name: &str) -> Result<usize, ServeError> {
        self.tenants
            .iter()
            .position(|t| t.name == name)
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }

    /// Breaker + predictive-admission gates, applied before any queueing.
    fn admission_checks(&self, tenant: usize, inputs: &[Tensor]) -> Result<(), ServeError> {
        if let Some(breakers) = &self.shared.breakers {
            let name = &self.tenants[tenant].name;
            let mut b = breakers[tenant].lock().expect("breaker lock");
            let admitted = b.admit(self.shared.now_s());
            sod2_obs::gauge_set(&format!("serve.circuit_state.{name}"), b.state().gauge());
            drop(b);
            if !admitted {
                let mut state = self.shared.state.lock().expect("serve state lock");
                state.stats.submitted += 1;
                state.stats.shed_circuit_open += 1;
                drop(state);
                sod2_obs::counter_add("serve.shed_circuit_open", 1);
                return Err(ServeError::CircuitOpen {
                    tenant: name.clone(),
                });
            }
        }
        if let Some((engine, cache)) = &self.pricer {
            let spec = &self.tenants[tenant];
            if spec.deadline.is_some() || spec.memory_budget.is_some() {
                let key = shape_class_of(inputs);
                let pred = {
                    let cached = cache.lock().expect("price cache lock").get(&key).copied();
                    match cached {
                        Some(p) => Some(p),
                        // Prediction failures (unbindable inputs) pass
                        // through: execution will produce the typed error.
                        None => engine
                            .lock()
                            .expect("pricer lock")
                            .predict(inputs)
                            .ok()
                            .inspect(|p| {
                                cache.lock().expect("price cache lock").insert(key, *p);
                            }),
                    }
                };
                if let Some(pred) = pred {
                    if let Some(budget) = spec.memory_budget {
                        if pred.peak_bytes > budget {
                            let mut state = self.shared.state.lock().expect("serve state lock");
                            state.stats.submitted += 1;
                            state.stats.rejected_predicted_budget += 1;
                            drop(state);
                            sod2_obs::counter_add("serve.rejected_predicted_budget", 1);
                            return Err(ServeError::PredictedBudgetExceeded {
                                predicted: pred.peak_bytes,
                                budget,
                            });
                        }
                    }
                    if let Some(deadline) = spec.deadline {
                        let deadline_s = deadline.as_secs_f64();
                        if pred.priced_s > deadline_s {
                            let mut state = self.shared.state.lock().expect("serve state lock");
                            state.stats.submitted += 1;
                            state.stats.rejected_predicted_deadline += 1;
                            drop(state);
                            sod2_obs::counter_add("serve.rejected_predicted_deadline", 1);
                            return Err(ServeError::PredictedDeadlineMiss {
                                predicted_s: pred.priced_s,
                                deadline_s,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn enqueue(&self, state: &mut State, tenant: usize, inputs: Vec<Tensor>) -> Ticket {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        state.queue.push_back(Pending {
            seq,
            tenant,
            class: shape_class_of(&inputs),
            inputs,
            tx,
            attempt: 0,
        });
        state.stats.accepted += 1;
        state.stats.max_queue_depth = state.stats.max_queue_depth.max(state.queue.len());
        sod2_obs::gauge_set("serve.queue_depth", state.queue.len() as u64);
        self.shared.work.notify_one();
        Ticket { seq, tenant, rx }
    }

    /// Non-blocking admission: rejects with a typed
    /// [`ServeError::QueueFull`] when the bounded queue is at capacity
    /// (load shedding), instead of waiting.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`], [`ServeError::Shutdown`],
    /// [`ServeError::QueueFull`], [`ServeError::CircuitOpen`], or a typed
    /// predictive-admission rejection.
    pub fn try_submit(&self, tenant: &str, inputs: Vec<Tensor>) -> Result<Ticket, ServeError> {
        let tenant = self.tenant_index(tenant)?;
        self.admission_checks(tenant, &inputs)?;
        let mut state = self.shared.state.lock().expect("serve state lock");
        if !state.open {
            return Err(ServeError::Shutdown);
        }
        state.stats.submitted += 1;
        if state.queue.len() >= self.queue_capacity {
            state.stats.rejected_queue_full += 1;
            sod2_obs::counter_add("serve.rejected_queue_full", 1);
            return Err(ServeError::QueueFull {
                depth: state.queue.len(),
                capacity: self.queue_capacity,
            });
        }
        Ok(self.enqueue(&mut state, tenant, inputs))
    }

    /// Blocking admission: applies backpressure by waiting for queue space
    /// instead of rejecting. Prefer [`Server::submit_timeout`] when the
    /// caller cannot afford to wait forever.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`], [`ServeError::Shutdown`],
    /// [`ServeError::CircuitOpen`], or a typed predictive-admission
    /// rejection.
    pub fn submit(&self, tenant: &str, inputs: Vec<Tensor>) -> Result<Ticket, ServeError> {
        let tenant = self.tenant_index(tenant)?;
        self.admission_checks(tenant, &inputs)?;
        let mut state = self.shared.state.lock().expect("serve state lock");
        loop {
            if !state.open {
                return Err(ServeError::Shutdown);
            }
            if state.queue.len() < self.queue_capacity {
                state.stats.submitted += 1;
                return Ok(self.enqueue(&mut state, tenant, inputs));
            }
            state = self.shared.space.wait(state).expect("serve state lock");
        }
    }

    /// Bounded blocking admission: waits for queue space at most `timeout`
    /// and then gives up with a typed [`ServeError::SubmitTimeout`] — a
    /// submitter can never hang forever on a saturated or wedged server.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`], [`ServeError::Shutdown`],
    /// [`ServeError::SubmitTimeout`], [`ServeError::CircuitOpen`], or a
    /// typed predictive-admission rejection.
    pub fn submit_timeout(
        &self,
        tenant: &str,
        inputs: Vec<Tensor>,
        timeout: Duration,
    ) -> Result<Ticket, ServeError> {
        let tenant = self.tenant_index(tenant)?;
        self.admission_checks(tenant, &inputs)?;
        let giveup = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("serve state lock");
        loop {
            if !state.open {
                return Err(ServeError::Shutdown);
            }
            if state.queue.len() < self.queue_capacity {
                state.stats.submitted += 1;
                return Ok(self.enqueue(&mut state, tenant, inputs));
            }
            let now = Instant::now();
            if now >= giveup {
                state.stats.submitted += 1;
                state.stats.submit_timeouts += 1;
                sod2_obs::counter_add("serve.submit_timeouts", 1);
                return Err(ServeError::SubmitTimeout { waited: timeout });
            }
            state = self
                .shared
                .space
                .wait_timeout(state, giveup - now)
                .expect("serve state lock")
                .0;
        }
    }

    /// Graceful shutdown: stops admissions, lets replicas drain the queue,
    /// joins every thread ever spawned (replicas, rebuilds, condemned
    /// stragglers, the supervisor — `threads_joined == threads_spawned`
    /// afterwards), and returns the lifetime counters. Requests still
    /// queued or parked when no replica remains to serve them receive
    /// typed [`ServeError::Shutdown`] responses.
    pub fn shutdown(mut self) -> ServeStats {
        {
            let mut state = self.shared.state.lock().expect("serve state lock");
            state.open = false;
            self.shared.work.notify_all();
            self.shared.space.notify_all();
        }
        let mut panics = 0usize;
        let mut joined = 0u64;
        if let Some(h) = self.supervisor.take() {
            if h.join().is_err() {
                panics += 1;
            }
            joined += 1;
        }
        // The supervisor moved the whole fleet into the graveyard before
        // exiting; loop in case a straggler lands late.
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut g = self.shared.graveyard.lock().expect("graveyard lock");
                g.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                if h.join().is_err() {
                    panics += 1;
                }
                joined += 1;
            }
        }
        // Belt and braces: respond to anything still parked (the
        // supervisor already drained it under normal shutdown).
        for (_, p) in self.shared.parked.lock().expect("parked lock").drain(..) {
            p.respond(Err(ServeError::Shutdown), usize::MAX, 0);
        }
        let mut state = self.shared.state.lock().expect("serve state lock");
        state.stats.replica_panics = panics;
        state.stats.threads_joined += joined;
        while let Some(p) = state.queue.pop_front() {
            p.respond(Err(ServeError::Shutdown), usize::MAX, 0);
        }
        sod2_obs::gauge_set("serve.replicas_healthy", 0);
        sod2_obs::gauge_set("serve.queue_depth", 0);
        state.stats.clone()
    }
}

fn spawn_replica(
    engine: Sod2Engine,
    ctx: Arc<Ctx>,
    id: usize,
) -> (Arc<ReplicaSlot>, JoinHandle<()>) {
    let slot = Arc::new(ReplicaSlot {
        id,
        inflight: Mutex::new(VecDeque::new()),
        busy_since_ns: AtomicU64::new(0),
        condemned: AtomicBool::new(false),
    });
    let handle = {
        let slot = Arc::clone(&slot);
        std::thread::Builder::new()
            .name(format!("sod2-serve-{id}"))
            .spawn(move || replica_loop(engine, ctx, slot))
            .expect("spawn replica thread")
    };
    (slot, handle)
}

/// Records a breaker outcome for `tenant` (no-op without breakers).
fn breaker_record(ctx: &Ctx, tenant: usize, ok: bool) {
    if let Some(breakers) = &ctx.shared.breakers {
        let mut b = breakers[tenant].lock().expect("breaker lock");
        b.record(ctx.shared.now_s(), ok);
        let gauge = b.state().gauge();
        drop(b);
        sod2_obs::gauge_set(
            &format!("serve.circuit_state.{}", ctx.tenants[tenant].name),
            gauge,
        );
    }
}

/// Settles one finished attempt: success responds, transient fault-class
/// failures retry (parked for backoff) while the tenant's budget and the
/// server's openness allow, anything else responds with the typed error.
fn finalize_attempt(
    ctx: &Ctx,
    mut p: Pending,
    result: Result<Vec<Tensor>, ExecError>,
    replica: usize,
    batch_size: usize,
    faults_fired: u64,
) {
    match result {
        Ok(outputs) => {
            breaker_record(ctx, p.tenant, true);
            {
                let mut state = ctx.shared.state.lock().expect("serve state lock");
                state.stats.completed_ok += 1;
            }
            sod2_obs::counter_add("serve.completed", 1);
            let _ = p.tx.send(Response {
                seq: p.seq,
                tenant: p.tenant,
                result: Ok(outputs),
                replica,
                batch_size,
                faults_fired,
            });
        }
        Err(e) => {
            let fault = is_fault_class(&e);
            if fault {
                breaker_record(ctx, p.tenant, false);
            }
            let budget = ctx.tenants[p.tenant].retry_budget;
            if fault && p.attempt < budget {
                // Park for a clean retry; the open-check is atomic with
                // the state lock so nothing parks after shutdown's drain.
                let mut state = ctx.shared.state.lock().expect("serve state lock");
                if state.open {
                    state.stats.retries += 1;
                    drop(state);
                    sod2_obs::counter_add("serve.retries", 1);
                    let due = Instant::now() + backoff_for(ctx.retry_backoff, p.attempt);
                    p.attempt += 1;
                    ctx.shared
                        .parked
                        .lock()
                        .expect("parked lock")
                        .push((due, p));
                    return;
                }
            }
            {
                let mut state = ctx.shared.state.lock().expect("serve state lock");
                state.stats.failed += 1;
                if fault && budget > 0 && p.attempt >= budget {
                    state.stats.retries_exhausted += 1;
                }
            }
            sod2_obs::counter_add("serve.failed", 1);
            let _ = p.tx.send(Response {
                seq: p.seq,
                tenant: p.tenant,
                result: Err(ServeError::Exec(e)),
                replica,
                batch_size,
                faults_fired,
            });
        }
    }
}

fn replica_loop(mut engine: Sod2Engine, ctx: Arc<Ctx>, slot: Arc<ReplicaSlot>) {
    let replica = slot.id;
    loop {
        if slot.condemned.load(Ordering::Acquire) {
            return;
        }
        let batch = {
            let mut state = ctx.shared.state.lock().expect("serve state lock");
            loop {
                if !state.queue.is_empty() {
                    break;
                }
                if !state.open {
                    return;
                }
                state = ctx.shared.work.wait(state).expect("serve state lock");
            }
            let batch = take_batch(&mut state.queue, |p: &Pending| &p.class, ctx.max_batch);
            state.stats.batches += 1;
            state.stats.executed += batch.len() as u64;
            state.stats.max_batch_size = state.stats.max_batch_size.max(batch.len());
            sod2_obs::gauge_set("serve.queue_depth", state.queue.len() as u64);
            // Queue space freed: wake blocked submitters.
            ctx.shared.space.notify_all();
            batch
        };
        sod2_obs::counter_add("serve.batches", 1);
        sod2_obs::counter_add("serve.batched_requests", batch.len() as u64);
        let batch_size = batch.len();
        {
            let mut inflight = slot.inflight.lock().expect("inflight lock");
            inflight.extend(batch);
        }
        loop {
            // Peek the front without removing it: the request stays
            // visible to the supervisor for the whole execution.
            let view = {
                let inflight = slot.inflight.lock().expect("inflight lock");
                inflight
                    .front()
                    .map(|p| (p.seq, p.tenant, p.attempt, p.inputs.clone()))
            };
            let Some((seq, tenant, attempt, inputs)) = view else {
                break;
            };
            let spec = &ctx.tenants[tenant];
            engine.set_deadline(spec.deadline);
            engine.set_memory_budget(spec.memory_budget);
            // Injected faults model transient faults: arm on the first
            // attempt only, so retries run clean.
            let armed = attempt == 0
                && ctx.injector.as_ref().is_some_and(|inj| {
                    inj.tenant == spec.name
                        && inj
                            .limit
                            .is_none_or(|l| ctx.shared.injector_armed.load(Ordering::Relaxed) < l)
                });
            let mut epoch = 0;
            if armed {
                let inj = ctx.injector.as_ref().expect("armed implies injector");
                ctx.shared.injector_armed.fetch_add(1, Ordering::Relaxed);
                let plan = format!("seed={};{}", inj.seed.wrapping_add(seq), inj.spec);
                epoch = ctx.shared.fault_epoch.fetch_add(1, Ordering::AcqRel) + 1;
                sod2_faults::install(
                    sod2_faults::FaultPlan::parse(&plan).expect("fault plan parses"),
                );
            }
            let fired_before = sod2_faults::fired_count();
            slot.busy_since_ns
                .store(ctx.shared.now_ns().max(1), Ordering::Release);
            let result = engine.infer(&inputs);
            slot.busy_since_ns.store(0, Ordering::Release);
            let faults_fired = sod2_faults::fired_count().saturating_sub(fired_before);
            // Clear only if no newer generation re-armed meanwhile (a
            // condemned replica waking after its replacement started must
            // not disarm the replacement's plan).
            if armed && ctx.shared.fault_epoch.load(Ordering::Acquire) == epoch {
                sod2_faults::clear();
            }
            if faults_fired > 0 {
                let mut state = ctx.shared.state.lock().expect("serve state lock");
                state.stats.faults_fired += faults_fired;
            }
            // Finish line: whoever pops the Pending owns the response. If
            // the supervisor stole it (this replica was condemned
            // mid-request), discard the local result — the request is
            // being retried or answered elsewhere.
            let owned = {
                let mut inflight = slot.inflight.lock().expect("inflight lock");
                if inflight.front().is_some_and(|p| p.seq == seq) {
                    inflight.pop_front()
                } else {
                    None
                }
            };
            match owned {
                Some(p) => finalize_attempt(
                    &ctx,
                    p,
                    result.map(|s| s.outputs),
                    replica,
                    batch_size,
                    faults_fired,
                ),
                None => return, // condemned; replacement already serving
            }
            if slot.condemned.load(Ordering::Acquire) {
                // Condemned between requests: push any unstarted
                // batch-mates back for the replacement and exit.
                let leftovers: Vec<Pending> = {
                    let mut inflight = slot.inflight.lock().expect("inflight lock");
                    inflight.drain(..).collect()
                };
                if !leftovers.is_empty() {
                    let mut state = ctx.shared.state.lock().expect("serve state lock");
                    for p in leftovers.into_iter().rev() {
                        state.queue.push_front(p);
                    }
                    ctx.shared.work.notify_all();
                }
                return;
            }
        }
    }
}

/// The supervisor: re-queues due retries, watches per-replica heartbeats,
/// condemns and rebuilds stalled replicas, and on shutdown drains the
/// parked list and hands the fleet's join handles to the graveyard.
fn supervisor_loop(
    ctx: Arc<Ctx>,
    template: Arc<Mutex<Sod2Engine>>,
    mut fleet: Vec<(Arc<ReplicaSlot>, JoinHandle<()>)>,
    stall_timeout: Option<Duration>,
    mut next_id: usize,
) {
    let poll = Duration::from_micros(500);
    loop {
        let open = {
            let state = ctx.shared.state.lock().expect("serve state lock");
            state.open
        };
        // 1. Retries: shutdown drains them typed; otherwise move the due
        // ones back into the queue (in seq order — deterministic), past
        // the capacity bound (they were admitted once already).
        let now = Instant::now();
        let mut due: Vec<Pending> = Vec::new();
        {
            let mut parked = ctx.shared.parked.lock().expect("parked lock");
            if !open {
                for (_, p) in parked.drain(..) {
                    p.respond(Err(ServeError::Shutdown), usize::MAX, 0);
                }
            } else {
                let mut i = 0;
                while i < parked.len() {
                    if parked[i].0 <= now {
                        due.push(parked.remove(i).1);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        if !due.is_empty() {
            due.sort_by_key(|p| p.seq);
            let mut state = ctx.shared.state.lock().expect("serve state lock");
            for p in due {
                state.queue.push_back(p);
            }
            state.stats.max_queue_depth = state.stats.max_queue_depth.max(state.queue.len());
            sod2_obs::gauge_set("serve.queue_depth", state.queue.len() as u64);
            ctx.shared.work.notify_all();
        }
        // 2. Heartbeats: condemn and rebuild any replica stuck on one
        // request past the stall timeout.
        if let Some(timeout) = stall_timeout {
            let timeout_ns = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
            for i in 0..fleet.len() {
                let slot = Arc::clone(&fleet[i].0);
                let busy = slot.busy_since_ns.load(Ordering::Acquire);
                if busy == 0
                    || slot.condemned.load(Ordering::Acquire)
                    || ctx.shared.now_ns().saturating_sub(busy) < timeout_ns
                {
                    continue;
                }
                slot.condemned.store(true, Ordering::Release);
                sod2_obs::counter_add("serve.stalls_detected", 1);
                sod2_obs::gauge_set("serve.replicas_healthy", (fleet.len() - 1) as u64);
                // Fault-fabric hygiene: the stalled thread may be asleep
                // under a plan it armed; retire that generation so the
                // replacement starts clean and the sleeper won't clear a
                // newer plan when it wakes.
                if ctx.injector.is_some() {
                    ctx.shared.fault_epoch.fetch_add(1, Ordering::AcqRel);
                    sod2_faults::clear();
                }
                // Steal the whole inflight deque: front = the stalled
                // request (retry it, on budget), rest = batch-mates that
                // never started (straight back to the queue, no charge).
                let mut stolen: VecDeque<Pending> = {
                    let mut inflight = slot.inflight.lock().expect("inflight lock");
                    inflight.drain(..).collect()
                };
                let victim = stolen.pop_front();
                {
                    let mut state = ctx.shared.state.lock().expect("serve state lock");
                    state.stats.stalls_detected += 1;
                    for p in stolen.into_iter().rev() {
                        state.queue.push_front(p);
                    }
                    ctx.shared.work.notify_all();
                }
                if let Some(mut victim) = victim {
                    breaker_record(&ctx, victim.tenant, false);
                    let budget = ctx.tenants[victim.tenant].retry_budget;
                    if victim.attempt < budget && open {
                        {
                            let mut state = ctx.shared.state.lock().expect("serve state lock");
                            state.stats.retries += 1;
                        }
                        sod2_obs::counter_add("serve.retries", 1);
                        let due_at = now + backoff_for(ctx.retry_backoff, victim.attempt);
                        victim.attempt += 1;
                        ctx.shared
                            .parked
                            .lock()
                            .expect("parked lock")
                            .push((due_at, victim));
                    } else {
                        {
                            let mut state = ctx.shared.state.lock().expect("serve state lock");
                            state.stats.failed += 1;
                            if budget > 0 {
                                state.stats.retries_exhausted += 1;
                            }
                        }
                        sod2_obs::counter_add("serve.failed", 1);
                        victim.respond(Err(ServeError::ReplicaStalled), slot.id, 0);
                    }
                }
                // Rebuild: fork a fresh replica off the template; the
                // condemned thread's handle waits in the graveyard (it
                // exits when its kernel hold ends).
                let engine = template.lock().expect("template lock").fork_replica();
                let replacement = spawn_replica(engine, Arc::clone(&ctx), next_id);
                next_id += 1;
                {
                    let mut state = ctx.shared.state.lock().expect("serve state lock");
                    state.stats.replicas_rebuilt += 1;
                    state.stats.threads_spawned += 1;
                }
                sod2_obs::counter_add("serve.replicas_rebuilt", 1);
                let old = std::mem::replace(&mut fleet[i], replacement);
                ctx.shared
                    .graveyard
                    .lock()
                    .expect("graveyard lock")
                    .push(old.1);
                sod2_obs::gauge_set("serve.replicas_healthy", fleet.len() as u64);
            }
        }
        if !open {
            let parked_empty = ctx.shared.parked.lock().expect("parked lock").is_empty();
            if parked_empty {
                let mut g = ctx.shared.graveyard.lock().expect("graveyard lock");
                for (_, h) in fleet.drain(..) {
                    g.push(h);
                }
                return;
            }
        }
        std::thread::sleep(poll);
    }
}
