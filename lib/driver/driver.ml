type options = {
  tile : bool;
  tile_size : int option;
  tile_sizes : int array option;
  parallelize : bool;
  wavefront : int;
  intra_reorder : bool;
  unroll_jam : int;
  min_band_tile : int;
  auto : Pluto.Auto.config;
  context_min : int;
  fast_schedule : bool;
  reductions : bool;
}

let default_options =
  {
    tile = true;
    tile_size = None;
    tile_sizes = None;
    parallelize = true;
    wavefront = 1;
    intra_reorder = true;
    unroll_jam = 1;
    min_band_tile = 2;
    auto = Pluto.Auto.default_config;
    context_min = 1;
    fast_schedule = true;
    reductions = false;
  }

type result = {
  program : Ir.program;
  deps : Deps.t list;
  transform : Pluto.Types.transform;
  target : Pluto.Types.target;
  code : Codegen.t;
}

let narrays (p : Ir.program) = List.length p.Ir.arrays

(* Tile sizes: uniform, either given or from the rough cache model (an L1 of
   the simulated machine: 2 KB = 256 doubles). *)
let sizes_for options (b : Pluto.Tiling.band) na =
  match options.tile_sizes with
  | Some sizes when Array.length sizes > 0 ->
      (* rectangular tiles: one size per band level, the last size repeated
         for bands deeper than the given vector *)
      Array.init b.Pluto.Tiling.b_len (fun j ->
          sizes.(min j (Array.length sizes - 1)))
  | _ ->
      let tau =
        match options.tile_size with
        | Some t -> t
        | None ->
            Pluto.Tiling.default_tile_size ~band_width:b.Pluto.Tiling.b_len
              ~cache_elems:2048 ~narrays:na
      in
      Array.make b.Pluto.Tiling.b_len tau

let intra_levels_of_band ~(bands_sizes : (Pluto.Tiling.band * int array) list)
    (b : Pluto.Tiling.band) =
  let supers_before =
    Putil.sum_by
      (fun ((b' : Pluto.Tiling.band), _) ->
        if b'.Pluto.Tiling.b_start <= b.Pluto.Tiling.b_start then
          b'.Pluto.Tiling.b_len
        else 0)
      bands_sizes
  in
  List.init b.Pluto.Tiling.b_len (fun j ->
      supers_before + b.Pluto.Tiling.b_start + j)

let build_target options (tr : Pluto.Types.transform) =
  let bands = Pluto.Tiling.bands_of tr in
  let na = narrays tr.Pluto.Types.program in
  let tiled_bands =
    List.filter
      (fun (b : Pluto.Tiling.band) ->
        options.tile && b.Pluto.Tiling.b_len >= options.min_band_tile)
      bands
  in
  let bands_sizes = List.map (fun b -> (b, sizes_for options b na)) tiled_bands in
  let tgt =
    if bands_sizes = [] then Pluto.Tiling.untiled_target tr
    else Pluto.Tiling.tile tr ~bands_sizes
  in
  let tgt =
    if not options.parallelize then
      (* strip all parallel marks *)
      { tgt with Pluto.Types.tpar = Array.map (fun _ -> Pluto.Types.Seq) tgt.Pluto.Types.tpar }
    else begin
      match bands_sizes with
      | [] ->
          (* untiled: mark outer parallel loops *)
          Pluto.Tiling.mark_outer_parallel
            { tgt with Pluto.Types.tpar = Array.map (fun _ -> Pluto.Types.Seq) tgt.Pluto.Types.tpar }
            ~max_degrees:1
      | (b, _) :: _ ->
          let tgt =
            { tgt with Pluto.Types.tpar = Array.map (fun _ -> Pluto.Types.Seq) tgt.Pluto.Types.tpar }
          in
          let levels = Pluto.Tiling.target_band_levels tr ~bands_sizes b in
          (* if the first tile-space loop is parallel, just mark it; else
             wavefront (Algorithm 2) *)
          let first = List.hd levels in
          let first_parallel =
            match tgt.Pluto.Types.tkinds.(first) with
            | Pluto.Types.Loop { parallel; _ } -> parallel
            | Pluto.Types.Scalar -> false
          in
          if first_parallel then begin
            let tpar = Array.copy tgt.Pluto.Types.tpar in
            tpar.(first) <- Pluto.Types.Par;
            { tgt with Pluto.Types.tpar = tpar }
          end
          else if options.wavefront > 0 then
            Pluto.Tiling.wavefront tgt ~levels ~degrees:options.wavefront
          else tgt
    end
  in
  let tgt =
    if options.intra_reorder then
      List.fold_left
        (fun tgt (b, _) ->
          let intra_levels = intra_levels_of_band ~bands_sizes b in
          let has_parallel =
            List.exists
              (fun l ->
                match tgt.Pluto.Types.tkinds.(l) with
                | Pluto.Types.Loop { parallel = true; _ } -> true
                | _ -> false)
              intra_levels
          in
          if has_parallel then
            Pluto.Tiling.move_parallel_innermost tgt ~intra_levels
          else
            (* §5.4: force vectorization of the best spatial-locality level
               with an ignore-dependence pragma *)
            Pluto.Tiling.force_vectorize_innermost tgt ~intra_levels)
        tgt bands_sizes
    else tgt
  in
  tgt

(* ------------------------ OpenMP reduction clauses ------------------------ *)

(* Per target level, the [reduction(op:array)] clauses the C printer must
   attach to a parallel loop at that level.  A parallel level [l] needs a
   clause for reduction statement [S] exactly when it {e carries} S's marked
   self-dependence under the final schedule: two instances of S with equal
   scattering prefix 0..l-1, a strictly positive difference at [l], and the
   same accumulator cell.  That is one integer-emptiness test per (level,
   statement) pair over two copies of S's extended (post-tiling) domain —
   e.g. MVT's outer-parallel [x1[i] += ...] is empty here (different [i] ⇒
   different cell ⇒ no clause) while its inner [j]-parallel variant is not.
   The clause privatizes the whole array (OpenMP 4.5 C array reductions),
   which is correct for cell accumulators too: private copies start at the
   op's identity and the combiner folds per-thread contributions into the
   live-in values.  A solver-budget blowup conservatively attaches the
   clause — a superfluous clause is semantically harmless, a missing one is
   a race. *)
let reduction_clauses ~ctx (tgt : Pluto.Types.target) (deps : Deps.t list) =
  let nlevels = tgt.Pluto.Types.tnlevels in
  let clauses = Array.make nlevels [] in
  let np = List.length tgt.Pluto.Types.tprogram.Ir.params in
  let red_stmts =
    List.sort_uniq compare
      (List.filter_map
         (fun (d : Deps.t) ->
           if d.Deps.reduction then Some d.Deps.src.Ir.id else None)
         deps)
  in
  List.iter
    (fun sid ->
      let ts = List.nth tgt.Pluto.Types.tstmts sid in
      match Ir.reduction_of_stmt ts.Pluto.Types.stmt with
      | None -> ()
      | Some r ->
          let s = ts.Pluto.Types.stmt in
          let next = Array.length ts.Pluto.Types.ext_iters in
          let m = Ir.depth s in
          let nv = (2 * next) + np in
          let width = nv + 1 in
          (* variables: [ext_iters copy 1 @ ext_iters copy 2 @ params] *)
          let embed offset (c : Polyhedra.constr) =
            let coefs = Vec.zero width in
            for j = 0 to next - 1 do
              coefs.(offset + j) <- c.Polyhedra.coefs.(j)
            done;
            for j = 0 to np - 1 do
              coefs.((2 * next) + j) <- c.Polyhedra.coefs.(next + j)
            done;
            coefs.(width - 1) <- c.Polyhedra.coefs.(next + np);
            { c with Polyhedra.coefs }
          in
          let base_cs =
            List.map (embed 0) ts.Pluto.Types.ext_domain.Polyhedra.cs
            @ List.map (embed next) ts.Pluto.Types.ext_domain.Polyhedra.cs
          in
          (* same accumulator cell in both copies (the original iterators are
             the trailing [m] extended iterators) *)
          let acc_eqs =
            List.map
              (fun k ->
                let row = r.Ir.red_acc.Ir.map.(k) in
                let coefs = Vec.zero width in
                for j = 0 to m - 1 do
                  coefs.(next - m + j) <- Bigint.of_int (-row.(j));
                  coefs.(next + (next - m) + j) <- Bigint.of_int row.(j)
                done;
                Polyhedra.eq coefs)
              (Putil.range (Array.length r.Ir.red_acc.Ir.map))
          in
          let fix =
            List.map
              (fun j ->
                let c = Vec.zero width in
                c.((2 * next) + j) <- Bigint.one;
                c.(width - 1) <- Bigint.of_int (-ctx);
                Polyhedra.eq c)
              (Putil.range np)
          in
          let trow_delta l =
            let row = ts.Pluto.Types.trows.(l) in
            let coefs = Vec.zero width in
            for j = 0 to next - 1 do
              coefs.(j) <- Bigint.of_int (-row.(j));
              coefs.(next + j) <- Bigint.of_int row.(j)
            done;
            coefs
          in
          for l = 0 to nlevels - 1 do
            if tgt.Pluto.Types.tpar.(l) = Pluto.Types.Par then begin
              let prefix_eqs =
                List.map (fun k -> Polyhedra.eq (trow_delta k)) (Putil.range l)
              in
              let ge1 =
                let c = trow_delta l in
                c.(width - 1) <- Bigint.minus_one;
                Polyhedra.ge c
              in
              let sys =
                Polyhedra.of_constrs nv
                  (base_cs @ acc_eqs @ fix @ prefix_eqs @ [ ge1 ])
              in
              let carries =
                try
                  if Polyhedra.is_empty_cached ~integer:true sys then false
                  else Option.is_some (Milp.feasible_cached sys)
                with Diag.Budget_exceeded _ -> true
              in
              if carries then begin
                let clause =
                  (Ir.binop_symbol r.Ir.red_op, s.Ir.lhs.Ir.arr)
                in
                if not (List.mem clause clauses.(l)) then
                  clauses.(l) <- clauses.(l) @ [ clause ]
              end
            end
          done)
    red_stmts;
  clauses

let compile_with_transform ?(options = default_options) program deps transform =
  let target = build_target options transform in
  let code =
    Stats.time "pass.codegen" (fun () ->
        Codegen.generate ~context_min:options.context_min target)
  in
  let code =
    if options.unroll_jam > 1 then
      Codegen.with_unroll_innermost code ~factor:options.unroll_jam
    else code
  in
  let code =
    if options.reductions then
      Codegen.with_reductions code
        (Stats.time "pass.reduction_clauses" (fun () ->
             reduction_clauses ~ctx:options.auto.Pluto.Auto.ctx target deps))
    else code
  in
  { program; deps; transform; target; code }

(* ------------------- the rungs of the degradation ladder ------------------ *)

(* What a rung's schedule function hands to code generation. *)
type scheduled = {
  transform : Pluto.Types.transform;
  gen_options : options;  (* the Feautrier and identity rungs generate untiled *)
  proved : bool;  (* validated by an earlier run: a fastpath store hit *)
  commit : unit -> unit;  (* run once the result is accepted, if not corrupted *)
}

(* What a failure of the rung does to the ladder. *)
type policy =
  | Reject
      (* a ["fastpath-rejected"] warning, not a degradation; the rung is
         speculative, so its output is always validated *)
  | Degrade of Diag.t  (* the demoted failure and this warning; [strict] stops *)
  | Stop  (* no rung below *)

type rung = {
  name : string;  (* prefix of the rung's failure diagnostics *)
  input_deps : options -> bool;
  schedule : options -> Ir.program -> Deps.t list -> scheduled;
  policy : policy;
}

let plain ~options transform =
  { transform; gen_options = options; proved = false; commit = ignore }

(* Cached outcome of the fast matcher for one (program, options) pair.
   Accepts are stored only after translation validation passed, so a warm
   hit skips both the matcher and the validator; rejects are cached too —
   re-deriving "this program needs the ILP" costs as much as the first
   attempt did. *)
type fast_cached =
  | Fast_accepted of
      Pluto.Types.level_kind array * int array array array * (int * int) list
      (* kinds, rows, sorted (dep id, satisfaction level) *)
  | Fast_rejected of string

(* The cache key covers the whole compilation request: any option (tile
   sizes, bounds, wavefronting...) changes the generated code the validator
   signed off on. *)
let fast_key (program : Ir.program) (options : options) =
  match Marshal.to_string (program, options) [] with
  | s -> Some (Digest.to_hex (Digest.string s))
  | exception _ -> None

(* The fast rung: the matcher, or its cached verdict.  A fresh accept is
   stored once the ladder accepted it. *)
let fast_schedule options program deps =
  let key = fast_key program options in
  let version = Pluto.Fastmatch.version and kind = "fastpath" in
  let store v =
    Option.iter (fun key -> Store.write_versioned ~version ~kind ~key v) key
  in
  (* a lower-bound estimate: the exact search solves at least one
     hyperplane lexmin ILP per loop level it emits *)
  let avoided (tr : Pluto.Types.transform) () =
    Stats.add "fastpath.ilp_avoided"
      (Array.fold_left
         (fun n k -> if k = Pluto.Types.Scalar then n else n + 1)
         0 tr.kinds)
  in
  match
    Option.bind key (fun key ->
        (Store.read_versioned ~version ~kind ~key : fast_cached option))
  with
  | Some (Fast_rejected reason) -> raise (Pluto.Fastmatch.No_fast_schedule reason)
  | Some (Fast_accepted (kinds, rows, satisfied)) ->
      let satisfied_at = Hashtbl.create 16 in
      List.iter (fun (d, l) -> Hashtbl.replace satisfied_at d l) satisfied;
      let tr =
        { Pluto.Types.program; deps; nlevels = Array.length kinds; kinds; rows; satisfied_at }
      in
      { (plain ~options tr) with proved = true; commit = avoided tr }
  | None -> (
      match Pluto.Fastmatch.schedule ~config:options.auto program deps with
      | exception (Pluto.Fastmatch.No_fast_schedule reason as e) ->
          store (Fast_rejected reason);
          raise e
      | tr ->
          let satisfied =
            Hashtbl.fold (fun d l acc -> (d, l) :: acc) tr.satisfied_at []
          in
          let accepted =
            Fast_accepted (tr.kinds, tr.rows, List.sort compare satisfied)
          in
          {
            (plain ~options tr) with
            commit =
              (fun () ->
                store accepted;
                avoided tr ());
          })

(* No tiling, no parallel marks, no post-passes: the original program order
   exactly as written (icc's auto-parallelizer fails on these). *)
let original_options options =
  {
    options with
    tile = false;
    parallelize = false;
    intra_reorder = false;
    unroll_jam = 1;
    reductions = false;
  }

let fast_rung =
  {
    name = "fast scheduling path";
    input_deps = (fun o -> o.auto.Pluto.Auto.input_deps);
    schedule = fast_schedule;
    policy = Reject;
  }

let ilp_rung =
  {
    name = "Pluto auto transformation";
    input_deps = (fun o -> o.auto.Pluto.Auto.input_deps);
    schedule =
      (fun options program deps ->
        plain ~options (Pluto.Auto.transform ~config:options.auto program deps));
    policy =
      Degrade
        (Diag.warning ~code:"degraded-feautrier"
           "Pluto search failed; falling back to the Feautrier/FCO baseline \
            schedule");
  }

let feautrier_rung =
  {
    name = "Feautrier baseline scheduler";
    input_deps = (fun _ -> false);
    schedule =
      (fun options program deps ->
        let config =
          {
            Feautrier_core.config with
            Pluto.Auto.budget = options.auto.Pluto.Auto.budget;
            Pluto.Auto.search_time_limit_s =
              options.auto.Pluto.Auto.search_time_limit_s;
          }
        in
        let tr, fco = Feautrier_core.scheduling_transform ~config program deps in
        plain ~options:(if fco then options else { options with tile = false }) tr);
    policy =
      Degrade
        (Diag.warning ~code:"degraded-identity"
           "Feautrier baseline failed; emitting the original program order \
            (no transformation)");
  }

let identity_rung =
  {
    name = "identity schedule";
    input_deps = (fun _ -> true);
    schedule =
      (fun options program deps ->
        plain ~options:(original_options options)
          (Pluto.Auto.identity_transform ~config:options.auto program deps));
    policy = Stop;
  }

let ladder = [ fast_rung; ilp_rung; feautrier_rung; identity_rung ]

(* Dependences, then the rung's schedule, each under its pass timer. *)
let schedule_rung ~options program rung =
  let deps =
    Stats.time "pass.deps" (fun () ->
        Deps.compute ~input_deps:(rung.input_deps options)
          ~reductions:options.reductions program)
  in
  (deps, Stats.time "pass.transform" (fun () -> rung.schedule options program deps))

let compile_rung ~options program rung =
  let deps, s = schedule_rung ~options program rung in
  compile_with_transform ~options:s.gen_options program deps s.transform

let compile ?(options = default_options) program =
  compile_rung ~options program ilp_rung

let compile_original ?(options = default_options) program =
  compile_rung ~options program identity_rung

(* The [schedule.corrupt] fault site's mutation: negate every statement's row
   at the outermost loop level that strongly satisfies a dependence
   (reversing those dependences), falling back to the first loop level when
   satisfaction is all-scalar. *)
let corrupt_schedule (t : Pluto.Types.transform) =
  let is_loop l =
    match t.Pluto.Types.kinds.(l) with
    | Pluto.Types.Loop _ -> true
    | Pluto.Types.Scalar -> false
  in
  let satisfying =
    Hashtbl.fold
      (fun _ l acc -> if is_loop l then min l acc else acc)
      t.Pluto.Types.satisfied_at max_int
  in
  let first_loop =
    List.find_opt is_loop (Putil.range (Array.length t.Pluto.Types.kinds))
  in
  match if satisfying < max_int then Some satisfying else first_loop with
  | None -> t
  | Some l ->
      let negate i row = if i = l then Array.map (fun c -> -c) row else row in
      { t with Pluto.Types.rows = Array.map (Array.mapi negate) t.Pluto.Types.rows }

(* ---------------- robust compilation: the degradation ladder ------------- *)

(* Run one rung, converting every failure mode into a diagnostic.  Anything
   that is not an explicit out-of-memory / interrupt is caught: the whole
   point of [compile_robust] is that no input can crash the process. *)
let attempt ~what f =
  match f () with
  | v -> Ok v
  | exception Diag.Budget_exceeded msg ->
      Error (Diag.errorf ~code:"budget" "%s: resource budget exceeded: %s" what msg)
  | exception Diag.Diagnostic d ->
      Error { d with Diag.message = what ^ ": " ^ d.Diag.message }
  | exception Pluto.Auto.No_transform msg ->
      Error (Diag.errorf ~code:"no-transform" "%s: no transformation found: %s" what msg)
  | exception Pluto.Fastmatch.No_fast_schedule msg ->
      Error (Diag.errorf ~code:"no-fast-schedule" "%s: %s" what msg)
  | exception Feautrier_core.No_schedule msg ->
      Error (Diag.errorf ~code:"no-schedule" "%s: no schedule found: %s" what msg)
  | exception Stack_overflow ->
      Error (Diag.errorf ~code:"internal" "%s: stack overflow" what)
  | exception ((Out_of_memory | Sys.Break) as e) -> raise e
  | exception e ->
      Error (Diag.errorf ~code:"internal" "%s: %s" what (Printexc.to_string e))

let demote (d : Diag.t) = { d with Diag.sev = Diag.Warning }
let promote (d : Diag.t) = { d with Diag.sev = Diag.Error }

let validate ~what (r : result) =
  match Verify.validate r.program r.deps r.transform r.code with
  | rep when Verify.ok rep -> Ok r
  | rep ->
      Error
        (Diag.errorf ~code:"verify-failed"
           "%s: translation validation rejected the emitted code: %s" what
           (Format.asprintf "%a" Verify.pp_report rep))
  | exception ((Out_of_memory | Sys.Break) as e) -> raise e
  | exception e ->
      Error
        (Diag.errorf ~code:"verify-failed" "%s: validator raised: %s" what
           (Printexc.to_string e))

(* One rung: dependences, schedule, the [schedule.corrupt] fault site, code
   generation, then validation when asked for or when the rung is
   speculative (a store hit was validated by the run that stored it). *)
let run_rung ~options ~verify program rung =
  Result.join
    (attempt ~what:rung.name (fun () ->
         let deps, s = schedule_rung ~options program rung in
         let corrupted = Fault.fire_at "schedule.corrupt" in
         let tr = if corrupted then corrupt_schedule s.transform else s.transform in
         let r = compile_with_transform ~options:s.gen_options program deps tr in
         let checked =
           if verify || (rung.policy = Reject && (corrupted || not s.proved))
           then validate ~what:rung.name r
           else Ok r
         in
         if Result.is_ok checked && not corrupted then s.commit ();
         checked))

let degraded ds =
  Diag.has_code ds "degraded-feautrier"
  || Diag.has_code ds "degraded-identity"
  || Diag.has_code ds "degraded-tune"

let verify ?param_lo ?param_hi ?claim_ctx ?params (r : result) =
  Verify.validate ?param_lo ?param_hi ?claim_ctx ?params r.program r.deps
    r.transform r.code

let compile_robust ?(options = default_options) ?(strict = false)
    ?(verify = false) program =
  (* [warns] and [fails] are in reverse order *)
  let rec climb warns fails = function
    | [] -> Error (List.rev_map promote fails)
    | rung :: rest -> (
        let speculative = rung.policy = Reject in
        if speculative then Stats.incr "fastpath.attempts";
        match run_rung ~options ~verify program rung with
        | Ok r when speculative ->
            Stats.incr "fastpath.accepts";
            Ok
              ( r,
                [
                  Diag.note ~code:"fastpath-accepted"
                    "fast scheduling path accepted a validated \
                     permutation/fusion schedule (no ILP solves)";
                ] )
        | Ok r -> Ok (r, List.rev warns)
        | Error d -> (
            match rung.policy with
            | Reject ->
                Stats.incr "fastpath.rejects";
                let w =
                  Diag.warningf ~code:"fastpath-rejected"
                    "%s; falling back to the exact ILP" d.Diag.message
                in
                climb (w :: warns) fails rest
            | Degrade w when not strict ->
                climb (w :: demote d :: warns) (d :: fails) rest
            | Degrade _ | Stop -> climb warns (d :: fails) []))
  in
  climb [] []
    (List.filter (fun r -> options.fast_schedule || r.policy <> Reject) ladder)

let compile_source_robust ?options ?strict ?verify ?name src =
  match Frontend.parse_program_diag ?name src with
  | Error ds -> Error ds
  | Ok (program, warns) -> (
      match compile_robust ?options ?strict ?verify program with
      | Ok (r, ds) -> Ok (r, warns @ ds)
      | Error ds -> Error (warns @ ds))
