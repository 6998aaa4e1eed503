(** End-to-end driver: the programmatic equivalent of running the [plutocc]
    tool.  Wires together dependence analysis, the transformation search,
    tiling, parallelization and code generation with the policy described in
    the paper (§5–§6):

    - find hyperplanes (Auto.transform);
    - tile every permutable band of width >= [min_band_tile] (Algorithm 1),
      with tile sizes from the rough cache model unless given;
    - if the outermost tile loop is parallel, mark it for OpenMP; otherwise
      extract [wavefront] degrees of pipelined parallelism (Algorithm 2);
    - optionally move an intra-tile parallel loop innermost (§5.4) for
      vectorization. *)

type options = {
  tile : bool;
  tile_size : int option;  (** uniform tile size; [None] = rough model *)
  tile_sizes : int array option;
      (** rectangular tiles: per-band-level sizes, outermost first, the last
          entry repeated for deeper bands; takes precedence over
          [tile_size].  The tuner's search space lives here. *)
  parallelize : bool;
  wavefront : int;  (** degrees of pipelined parallelism to extract *)
  intra_reorder : bool;  (** §5.4 post-pass *)
  unroll_jam : int;
      (** unroll-jam factor applied to innermost parallel/vectorized loops
          ({!Codegen.with_unroll_innermost}); 1 = off *)
  min_band_tile : int;  (** minimum band width worth tiling *)
  auto : Pluto.Auto.config;
  context_min : int;
  fast_schedule : bool;
      (** try the fast fusion/dimension-matching scheduler
          ({!Pluto.Fastmatch}) before the exact ILP in {!compile_robust};
          accepted schedules are translation-validated first, rejections
          fall back to the ILP with a ["fastpath-rejected"] warning.
          Default on ([--no-fast-schedule] turns it off). *)
  reductions : bool;
      (** reduction-aware compilation ([--reductions], default off):
          associative/commutative self-updates are detected and their
          self-dependences marked ({!Deps.compute}), the schedulers relax
          marked edges (parallelizing dot products, histograms and the
          accumulation dimensions of lu/mvt), parallel loops that carry a
          marked reduction get OpenMP [reduction(op:array)] clauses, and the
          translation validator switches to legality modulo reassociation
          for the marked edges only.  Execution of such programs matches the
          original order up to floating-point reassociation
          ({!Machine.equivalent} [~tolerance]), not bit-exactly. *)
}

(** The paper's main experiments: tile + parallelize with one degree of
    pipelined parallelism, intra-tile reordering on, plus the fast rung. *)
val default_options : options

type result = {
  program : Ir.program;
  deps : Deps.t list;
  transform : Pluto.Types.transform;
  target : Pluto.Types.target;
  code : Codegen.t;
}

(** [compile ?options program] runs the full pipeline.
    @raise Pluto.Auto.No_transform if the search fails. *)
val compile : ?options:options -> Ir.program -> result

(** [compile_with_transform ?options program deps transform] skips the search
    and applies tiling/parallelization/codegen to an externally supplied
    transformation (used by the baseline schemes). *)
val compile_with_transform :
  ?options:options -> Ir.program -> Deps.t list -> Pluto.Types.transform -> result

(** The identity (original program order) pipeline — the "native compiler"
    baseline; no tiling or parallelization. *)
val compile_original : ?options:options -> Ir.program -> result

(** {1 Robust compilation: the graceful-degradation ladder}

    [compile_robust] walks one ordered list of rungs.  Each rung computes
    the dependences, asks its scheduler for a transformation, generates
    code and — when [verify] is set, or always for the speculative fast
    rung — runs the translation validator ({!Verify.validate}).  Every
    failure (a scheduler give-up, solver budget exhaustion
    [Diag.Budget_exceeded], a rejected validation, any unexpected exception)
    becomes a diagnostic through {!attempt}, and the rung's failure policy
    decides what happens next:

    + the fast fusion/dimension-matching scheduler ({!Pluto.Fastmatch}),
      only when [options.fast_schedule]: zero ILP solves, accepts cached in
      the ["fastpath"] store.  An accept is a ["fastpath-accepted"] note; a
      failure is a ["fastpath-rejected"] warning, which is {e not} a
      degradation ({!degraded} stays false, the CLI still exits 0);
    + the Pluto automatic transformation ({!compile}).  A failure ends the
      ladder under [strict]; otherwise it is demoted to a warning followed
      by ["degraded-feautrier"];
    + the Feautrier + Griebl-FCO baseline schedule ({!Feautrier_core}), with
      the same solver budget and search deadline.  A failure is demoted,
      followed by ["degraded-identity"];
    + the untiled identity schedule ({!compile_original}).  It fails only if
      dependence analysis itself fails, when no semantically-safe code can
      be emitted: the whole compilation is then a hard error listing every
      non-fast rung's failure.

    Between scheduling and code generation each rung passes the
    ["schedule.corrupt"] fault site ({!Fault.fire_at}, armed only by an
    explicit [PLUTO_FAULT_AT=schedule.corrupt@N]): when it fires, the
    transformation is mutated by {!corrupt_schedule}, so the validator has
    something to catch.  A corrupted fast schedule is never written to or
    served from the store. *)

(** [compile_robust ?options ?strict ?verify p] — [Ok (result, diagnostics)],
    the diagnostics recording the fast rung's verdict and each degradation
    step, or [Error diagnostics] when no rung could emit code (or, under
    [strict], when the exact ILP rung failed). *)
val compile_robust :
  ?options:options ->
  ?strict:bool ->
  ?verify:bool ->
  Ir.program ->
  (result * Diag.t list, Diag.t list) Stdlib.result

(** [compile_source_robust ?options ?strict ?verify ?name src] — parse first
    (collecting all frontend diagnostics), then {!compile_robust}. *)
val compile_source_robust :
  ?options:options ->
  ?strict:bool ->
  ?verify:bool ->
  ?name:string ->
  string ->
  (result * Diag.t list, Diag.t list) Stdlib.result

(** [corrupt_schedule t] — the ["schedule.corrupt"] mutation: negate every
    statement's row at the outermost loop level that strongly satisfies a
    dependence (reversing those dependences), or at the first loop level
    when satisfaction is all-scalar; [t] itself if it has no loop level. *)
val corrupt_schedule : Pluto.Types.transform -> Pluto.Types.transform

(** [degraded ds] — does the diagnostic list record a degradation step? (The
    CLI maps this to exit code 2.) *)
val degraded : Diag.t list -> bool

(** [attempt ~what f] — the ladder's exception wall: run [f], converting any
    failure ([Diag.Budget_exceeded], [Diag.Diagnostic], scheduler
    give-ups, stack overflow, anything unexpected) into an [Error]
    diagnostic prefixed with [what].  Only genuine out-of-memory/interrupt
    conditions propagate.  Exposed for tests and embedders building their
    own rungs. *)
val attempt : what:string -> (unit -> 'a) -> ('a, Diag.t) Stdlib.result

(** [verify ?param_lo ?param_hi ?claim_ctx ?params r] — run the independent
    translation validator ({!Verify.validate}) on a compilation result:
    re-proves schedule legality over the dependence polyhedra and that the
    generated AST scans exactly the original iteration domains. *)
val verify :
  ?param_lo:int ->
  ?param_hi:int ->
  ?claim_ctx:int ->
  ?params:int array ->
  result ->
  Verify.report
