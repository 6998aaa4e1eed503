(** Deterministic seeded fault injection for the I/O infrastructure.

    The translation-validation work (DESIGN.md §8) showed that the scheduler
    is only trustworthy under adversarial differential testing; this module
    applies the same discipline to the parts of the system that touch the
    operating system.  {!Store}, {!Pool} and {!Runner} thread named
    *injection points* through every syscall boundary — opening and writing
    cache entries, fsync, rename, pipe reads, forked workers — and each
    point asks this module whether the present call should fail.  The
    decision is a pure function of [(seed, site, per-site call index)], so a
    fault schedule is reproducible: the same seed injects the same faults at
    the same points.

    One site is not I/O: ["schedule.corrupt"], in [Driver]'s degradation
    ladder between scheduling and code generation, corrupts the schedule
    ([Driver.corrupt_schedule]) so that the translation validator has
    something to catch.  It is queried with {!fire_at}, so only an explicit
    [schedule.corrupt@N] entry fires it.

    Faults surface as the *real* failure would: [Sys_error],
    [Unix.Unix_error] ([ENOSPC], [EINTR], ...), corrupted or truncated
    bytes, or a worker process SIGKILLing itself.  The instrumented layers
    must therefore survive injection through exactly the code paths that
    handle genuine failures — there is no fault-injection-only handling
    anywhere.

    Configuration comes from {!install} (in-process, used by the chaos
    suite; forked children inherit it) or from the environment on first
    use:

    - [PLUTO_FAULT_SEED] — integer seed; setting it enables injection;
    - [PLUTO_FAULT_RATE] — per-call failure probability (default 0.01 when
      a seed is set, 0 otherwise);
    - [PLUTO_FAULT_ONLY] — comma-separated site-name prefixes to restrict
      injection to (e.g. ["store.write,pool."]);
    - [PLUTO_FAULT_AT] — comma-separated [site@N] entries: fail exactly the
      Nth call of that site (works with rate 0, for pinpoint schedules).

    Counters: ["fault.injected"] (total) and ["fault.<site>"] per site, so
    [--stats] shows exactly what a chaos run injected, aggregated across
    forked workers like every other counter. *)

type config = {
  seed : int;
  rate : float;  (** per-call injection probability in [0,1] *)
  only : string list;
      (** site-name prefixes injection is restricted to; [[]] = all sites *)
  fail_at : (string * int list) list;
      (** [(site, ns)]: additionally fail the [n]th call of [site] (1-based)
          for every [n] in [ns], regardless of [rate] *)
}

(** A configuration that never injects (rate 0, no schedules). *)
val none : config

(** Parse the [PLUTO_FAULT_*] environment (see above); [None] when no knob
    is set (empty values count as unset). *)
val of_env : unit -> config option

(** [install (Some c)] activates [c] in this process (and, by fork
    inheritance, in workers spawned afterwards), replacing any environment
    configuration; [install None] disables injection.  Per-site call
    counters restart at zero, so schedules are comparable across installs. *)
val install : config option -> unit

(** Re-read the [PLUTO_FAULT_*] environment now (tests use this after
    [Unix.putenv]). *)
val install_from_env : unit -> unit

(** The active configuration, reading the environment on first use. *)
val current : unit -> config option

val enabled : unit -> bool

(** [fire site] — count one call of [site] and decide whether it should
    fail.  The caller applies the site-appropriate failure itself (raise,
    corrupt, kill, ...); the helpers below cover the common shapes. *)
val fire : string -> bool

(** [fire_at site] — like {!fire}, but only an explicit [site@N] entry in
    [fail_at] fires it, never [rate].  For sites that change what the
    compiler emits rather than how it does I/O, so that rate storms, whose
    contract is output bit-identical to the fault-free run, cannot reach
    them. *)
val fire_at : string -> bool

(** [sys_error site] — raise [Sys_error] if [fire site]. *)
val sys_error : string -> unit

(** [unix_error site err fn] — raise [Unix.Unix_error (err, fn, _)] if
    [fire site]. *)
val unix_error : string -> Unix.error -> string -> unit

(** [mangle site s] — [s] with one deterministically chosen byte flipped if
    [fire site] (and [s] is non-empty), else [s] unchanged.  Models bit rot
    and torn reads. *)
val mangle : string -> string -> string

(** [truncate site s] — a deterministically chosen strict prefix of [s] if
    [fire site] (and [s] is non-empty), else [s].  Models partial writes
    and truncated pipe payloads. *)
val truncate : string -> string -> string

(** One-line rendering of a configuration, for failure dumps and logs. *)
val describe : config -> string
