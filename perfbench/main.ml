(* The repository benchmark: cold-compile latency, simulated GFLOPS of the
   emitted code and simulator throughput, on two workloads (README.md in
   this directory explains the choice of workloads and every metric).

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   One process, one compile at a time.  A compile is what [plutocc --verify]
   does: parse, [Driver.compile_robust ~verify:true], print the C to a
   buffer.  Every timed compile starts from cleared solver caches and no
   store directory, like a fresh plutocc process.  [--seed] breaks the ties
   in the order in which the run samples the corpus after its first compile
   pass.

   With [--trace 0] the last stdout line is the JSON result with the
   end-to-end metrics; with [--trace 1] it carries the per-layer metrics of
   a traced pass that calls each layer's public functions from here, and the
   spans are written to perfbench/out/. *)

let now_ns () = Monotonic_clock.now ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

let fatal fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ------------------------------ arguments -------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let int_of name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fatal "%s expects an integer, got %S" name v
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_of "--seed" v); go rest
    | "--seconds" :: v :: rest ->
        seconds := Some (float_of_int (int_of "--seconds" v)); go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := Some false
        | "1" -> trace := Some true
        | _ -> fatal "--trace expects 0 or 1, got %S" v);
        go rest
    | a :: _ -> fatal "unknown or incomplete argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  let need name = function Some v -> v | None -> fatal "missing %s" name in
  let seconds = need "--seconds" !seconds in
  if seconds < 1. then fatal "--seconds must be at least 1";
  {
    workload = need "--workload" !workload;
    seed = need "--seed" !seed;
    seconds;
    trace = need "--trace" !trace;
  }

(* ------------------------------ workloads -------------------------------- *)

type item = {
  name : string;  (** kernel name *)
  source : string;
  check_params : (string * int) list;  (** equivalence check *)
  sim_params : (string * int) list;  (** performance simulation *)
}

let kernel_item (k : Kernels.t) =
  {
    name = k.Kernels.name;
    source = k.Kernels.source;
    check_params = k.Kernels.check_params;
    sim_params = k.Kernels.bench_params;
  }

type workload = {
  options : Driver.options;
  items : item list;
  sim_share : float;
      (** share of the measuring time spent simulating, the rest compiling *)
}

(* A kernels-default pass compiles in about 0.5 s and simulates in about
   8 s, so it gets most of the run for simulation; a kernels-exact pass
   compiles in about 5 s, simulates in about 10 s and splits the run
   evenly. *)
let workload_of args =
  let kernels options sim_share =
    Some { options; items = List.map kernel_item Kernels.all; sim_share }
  in
  match args.workload with
  | "kernels-default" -> kernels Driver.default_options 0.85
  | "kernels-exact" ->
      kernels { Driver.default_options with Driver.fast_schedule = false } 0.5
  | _ -> None

(* ---------------------------- one compile -------------------------------- *)

type rung = Fast | Ilp | Feautrier | Identity

let rung_name = function
  | Fast -> "fast" | Ilp -> "ilp" | Feautrier -> "feautrier" | Identity -> "identity"

let rung_of_diags ds =
  if Diag.has_code ds "fastpath-accepted" then Fast
  else if Diag.has_code ds "degraded-identity" then Identity
  else if Diag.has_code ds "degraded-feautrier" then Feautrier
  else Ilp

type outcome = {
  o_ms : float;
  o_result : (Driver.result * rung * string, string) result;
      (** result, rung and emitted C; or why it failed *)
  o_counters : (string * int) list;  (** Stats counters of this compile *)
}

let print_c (r : Driver.result) =
  let b = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer b in
  Codegen.print_c fmt r.Driver.code;
  Format.pp_print_flush fmt ();
  Buffer.contents b

let errors ds = String.concat "; " (List.map (fun d -> d.Diag.message) ds)

(* Before every timed compile: empty solver caches and counters, and a
   collected heap, so that no compile pays for its predecessor's garbage. *)
let cold () =
  Milp.clear_caches ();
  Polyhedra.clear_caches ();
  Stats.reset ();
  Gc.full_major ()

(* The untraced compile, exactly the plutocc --verify pipeline. *)
let compile options (it : item) =
  cold ();
  let t0 = now_ns () in
  let res =
    match Frontend.parse_program_diag ~name:it.name it.source with
    | Error ds -> Error ("parse: " ^ errors ds)
    | Ok (p, _) -> (
        match Driver.compile_robust ~options ~verify:true p with
        | Error ds -> Error ("compile: " ^ errors ds)
        | Ok (r, ds) -> Ok (r, rung_of_diags ds, print_c r))
  in
  let t1 = now_ns () in
  { o_ms = ms_between t0 t1; o_result = res; o_counters = Stats.counters () }

(* ------------------------------ statistics ------------------------------- *)

(* Nearest-rank percentile of a non-empty sample. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* The middle value, or the mean of the two middle values. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean xs =
  exp (List.fold_left (fun s x -> s +. log x) 0. xs /. float_of_int (List.length xs))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      scan ())

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ----------------------------- bookkeeping ------------------------------- *)

(* A failed compile, check or repeat is printed and marks its program
   failed; no program is ever dropped from the corpus.  Every timed compile
   of a failed program then counts as a failed compile. *)
let failed_programs : (string, unit) Hashtbl.t = Hashtbl.create 16

let fail it fmt =
  Printf.ksprintf
    (fun s ->
      Hashtbl.replace failed_programs it.name ();
      Printf.printf "FAIL %s: %s\n%!" it.name s)
    fmt

(* First outcome per item: later compiles of the same item must repeat its
   C and its solver counters exactly (which also proves the caches were
   cold: a warm repeat would show different hit/miss counts). *)
type reference = { r_result : Driver.result; r_rung : rung; r_c : string; r_counters : (string * int) list }

let check_repeat refs it (o : outcome) =
  match (o.o_result, Hashtbl.find_opt refs it.name) with
  | Error msg, _ -> fail it "%s" msg
  | Ok (r, rung, c), None ->
      Hashtbl.replace refs it.name
        { r_result = r; r_rung = rung; r_c = c; r_counters = o.o_counters }
  | Ok (_, rung, c), Some ref_ ->
      if c <> ref_.r_c then fail it "emitted C differs between repeated compiles";
      if rung <> ref_.r_rung then fail it "rung differs between repeated compiles";
      if o.o_counters <> ref_.r_counters then
        fail it "solver counters differ between repeated compiles"

let params_of (r : Driver.result) assoc = Kernels.params_vector r.Driver.program assoc

(* Correctness of one emitted program (untimed): the validator at the check
   parameters and bit-exact agreement with the independent original-order
   interpreter (reductions are off, so no tolerance). *)
let check_correct it (ref_ : reference) =
  let r = ref_.r_result in
  let params = params_of r it.check_params in
  (match Driver.verify ~params r with
  | rep when Verify.ok rep -> ()
  | _ -> fail it "translation validation failed at the check parameters"
  | exception e -> fail it "validator raised %s" (Printexc.to_string e));
  match Machine.equivalent r.Driver.program r.Driver.code ~params with
  | true -> ()
  | false -> fail it "emitted code differs from the original-order oracle"
  | exception e -> fail it "equivalence check raised %s" (Printexc.to_string e)

let check_all_correct items refs =
  List.iter (fun it -> Option.iter (check_correct it) (Hashtbl.find_opt refs it.name)) items

(* One simulation of an emitted program at its sim params, with its wall ms. *)
let simulate it (r : Driver.result) =
  let t0 = now_ns () in
  let s =
    Machine.simulate Machine.default_machine r.Driver.code
      ~params:(params_of r it.sim_params)
  in
  (s, ms_between t0 (now_ns ()))

(* Every simulation of a program must give the same GFLOPS. *)
let check_same_gflops it (s : Machine.sim_result) (s' : Machine.sim_result) =
  if s.Machine.gflops <> s'.Machine.gflops then
    fail it "simulated GFLOPS differ between two simulations"

(* ------------------------------ speed probe ------------------------------ *)

(* The machine's speed moves by up to 1.8x for minutes at a time, every
   time metric at once (README.md, Noise).  A fixed probe that calls no code
   of the repository runs after every step of the untraced run, and the
   median of its times is the machine's speed during the run.  Every
   end-to-end time is scaled to the speed at which the probe takes
   [probe_ref_ms], about the usual speed of the machine the benchmark was
   written on: a time t becomes t * probe_ref_ms / median probe.  The probe
   does what the compiler does most: it allocates short-lived lists, sorts
   them with the polymorphic compare and fills a small hash table.  Its
   time moved with the compile and simulation times between runs (slope
   0.9 to 1.2 on a log scale, README.md), where a cache-missing array walk
   moved up to twice as much as they did. *)
let probe_ref_ms = 2.4

let probe () =
  let t0 = now_ns () in
  let acc = ref 0 in
  for r = 1 to 15 do
    let l = List.sort compare (List.init 1000 (fun i -> ((i * 7919) + r) land 1023)) in
    let h = Hashtbl.create 64 in
    List.iter (fun x -> Hashtbl.replace h (x land 255) x) l;
    acc := !acc + List.fold_left ( + ) 0 (List.map (fun x -> x * 3) l) + Hashtbl.length h
  done;
  ignore (Sys.opaque_identity !acc);
  ms_between t0 (now_ns ())

(* -------------------------------- setup ---------------------------------- *)

(* Build and parse the corpus and run one warm-up compile: the workload and
   the seconds it took.  The untraced run repeats it [setup_reps] times,
   spread over the run (see [untraced]). *)
let setup args =
  let t0 = now_ns () in
  let w =
    match workload_of args with
    | Some w -> w
    | None -> fatal "unknown workload %S" args.workload
  in
  List.iter
    (fun it ->
      match Frontend.parse_program_diag ~name:it.name it.source with
      | Ok _ -> ()
      | Error ds -> fatal "corpus program %s does not parse: %s" it.name (errors ds))
    w.items;
  ignore (compile w.options (List.hd w.items));
  (w, ms_between t0 (now_ns ()) /. 1e3)

(* ---------------------------- JSON output -------------------------------- *)

let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (k, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" k (json_num v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (Hashtbl.length failed_programs = 0) attempted failed m

(* ---------------------------- untraced run ------------------------------- *)

(* The machine's speed changes in phases of seconds to minutes, so each
   program's time is the median of many samples spread over the whole run.
   After a first compile pass in corpus order, the run interleaves single
   compiles with single simulations.  The next step simulates while
   simulation has had less than the workload's [sim_share] of the time
   spent so far, and compiles otherwise.

   Each of the two streams follows a sampling plan (see [plan]): a cheap
   program gets more samples than a costly one, every program gets at
   least the stream's floor, and each program's samples are spread evenly
   over the run.  Ties go to an order drawn from --seed.  The run
   stops at --seconds, once every program has its floor of compiles and
   simulations.

   The set-up is repeated too, at even intervals, and setup_s is the
   median of the [setup_reps] set-ups.  So it is the warm in-process
   set-up cost: it leaves out the start of the process, and the repeats
   reuse its grown heap. *)
let min_compiles = 3
let min_sims = 2
let setup_reps = 21

(* A sampling plan for one stream over [budget_ms] of steps.  Program i,
   whose cheapest step so far took c_i ms, is planned n_i = max floor
   (lambda / sqrt c_i) samples, with lambda such that the plan fills the
   budget.  A program's time thus grows with the square root of its cost:
   the cheap programs that decide compile_ms.p50 get many samples, and the
   costly ones that decide pass_s still get more than the floor when the
   budget allows.  The next step takes the program that has made the least
   progress k_i / n_i, k_i being its samples so far, so that every
   program's samples are spread evenly over the run. *)
type plan = {
  floor : int;
  budget_ms : float;
  order : item array;  (** tie-break order *)
  taken : (string, int) Hashtbl.t;
  cost : (string, float) Hashtbl.t;  (** cheapest step ms so far *)
}

let plan rng ~floor ~budget_ms items =
  let order = Array.of_list items in
  shuffle rng order;
  { floor; budget_ms; order; taken = Hashtbl.create 16; cost = Hashtbl.create 16 }

let record p it ms =
  Hashtbl.replace p.taken it.name (1 + Option.value ~default:0 (Hashtbl.find_opt p.taken it.name));
  Hashtbl.replace p.cost it.name
    (Float.max 1e-3
       (Float.min ms (Option.value ~default:infinity (Hashtbl.find_opt p.cost it.name))))

(* The next program to sample among those [eligible]; programs not yet
   sampled come first. *)
let next p eligible =
  let at_least = float_of_int p.floor in
  let planned lambda c = Float.max at_least (lambda /. sqrt c) in
  let costs = Hashtbl.fold (fun _ c a -> c :: a) p.cost [] in
  let fits lambda =
    List.fold_left (fun a c -> a +. (planned lambda c *. c)) 0. costs <= p.budget_ms
  in
  (* the largest lambda whose plan fits the budget, by bisection *)
  let rec bisect lo hi i =
    if i = 0 then lo
    else
      let mid = (lo +. hi) /. 2. in
      if fits mid then bisect mid hi (i - 1) else bisect lo mid (i - 1)
  in
  let lambda = bisect 0. (p.budget_ms /. List.fold_left (fun a c -> a +. sqrt c) 1e-9 costs) 50 in
  let progress it =
    match Hashtbl.find_opt p.cost it.name with
    | None -> 0.
    | Some c -> float_of_int (Hashtbl.find p.taken it.name) /. planned lambda c
  in
  Array.fold_left
    (fun best it ->
      match best with
      | _ when not (eligible it) -> best
      | Some b when progress b <= progress it -> best
      | _ -> Some it)
    None p.order

let untraced args w first_setup_s =
  let refs = Hashtbl.create 64 in
  let compile_ms = Hashtbl.create 64 and sim_ms = Hashtbl.create 64 in
  let first_sim = Hashtbl.create 64 in
  let samples tbl it = Option.value ~default:[] (Hashtbl.find_opt tbl it.name) in
  let push tbl it v = Hashtbl.replace tbl it.name (v :: samples tbl it) in
  let attempted = ref 0 and full_rung = ref 0 in
  let compile_one it =
    let o = compile w.options it in
    incr attempted;
    push compile_ms it o.o_ms;
    (match o.o_result with
    | Ok (_, (Fast | Ilp), _) -> incr full_rung
    | _ -> ());
    check_repeat refs it o
  in
  (* a program whose compile failed has no code to simulate; it is already
     counted as failed *)
  let simulate_one it =
    Option.iter
      (fun ref_ ->
        let s, ms = simulate it ref_.r_result in
        push sim_ms it ms;
        match Hashtbl.find_opt first_sim it.name with
        | None -> Hashtbl.replace first_sim it.name s
        | Some s0 -> check_same_gflops it s0 s)
      (Hashtbl.find_opt refs it.name)
  in
  (* two plans with their own random streams, so that each tie-break
     order depends only on the seed *)
  let budget share = args.seconds *. 1e3 *. share in
  let compiles =
    plan (Random.State.make [| args.seed; 0 |]) ~floor:min_compiles
      ~budget_ms:(budget (1. -. w.sim_share)) w.items
  in
  let sims =
    plan (Random.State.make [| args.seed; 1 |]) ~floor:min_sims
      ~budget_ms:(budget w.sim_share) w.items
  in
  let compile_spent = ref 0. and sim_spent = ref 0. in
  let probes = ref [] in
  let step spent p f it =
    let t = now_ns () in
    f it;
    let ms = ms_between t (now_ns ()) in
    spent := !spent +. ms;
    record p it ms
  in
  let compile_next () =
    Option.iter (step compile_spent compiles compile_one) (next compiles (fun _ -> true))
  in
  let t0 = now_ns () in
  List.iter (step compile_spent compiles compile_one) w.items;
  (* read before any simulation, and after a pass in corpus order, so that
     it does not depend on the seed *)
  let peak_mb = peak_rss_mb () in
  let setups = ref [ first_setup_s ] in
  let setup_every_ms = args.seconds *. 1e3 /. float_of_int setup_reps in
  let enough () =
    ms_between t0 (now_ns ()) >= args.seconds *. 1e3
    && List.for_all
         (fun it ->
           List.length (samples compile_ms it) >= min_compiles
           && (List.length (samples sim_ms it) >= min_sims || not (Hashtbl.mem refs it.name)))
         w.items
  in
  while not (enough ()) do
    if
      List.length !setups < setup_reps
      && ms_between t0 (now_ns ()) >= setup_every_ms *. float_of_int (List.length !setups)
    then setups := snd (setup args) :: !setups
    else if !sim_spent <= w.sim_share *. (!sim_spent +. !compile_spent) then
      (* a program whose compile failed has nothing to simulate *)
      (match next sims (fun it -> Hashtbl.mem refs it.name) with
      | Some it -> step sim_spent sims simulate_one it
      | None -> compile_next ())
    else compile_next ();
    probes := probe () :: !probes
  done;
  check_all_correct w.items refs;
  let simulated = List.filter (fun it -> Hashtbl.mem first_sim it.name) w.items in
  let sim it = Hashtbl.find first_sim it.name in
  List.iter
    (fun it -> if not ((sim it).Machine.gflops > 0.) then fail it "no positive simulated GFLOPS")
    simulated;
  let typical tbl it = median (samples tbl it) in
  List.iter
    (fun it ->
      let ms = samples compile_ms it in
      Printf.printf
        "%-16s %-9s compile ms median %8.2f min %8.2f max %8.2f (%3d)  sim ms median %8.2f (%2d)  gflops %.6f  instances %d\n"
        it.name (rung_name (Hashtbl.find refs it.name).r_rung) (median ms)
        (List.fold_left min infinity ms) (List.fold_left max 0. ms) (List.length ms)
        (typical sim_ms it)
        (List.length (samples sim_ms it)) (sim it).Machine.gflops (sim it).Machine.instances)
    simulated;
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map
               (fun it ->
                 match Hashtbl.find_opt refs it.name with
                 | Some r -> it.name ^ "\n" ^ r.r_c
                 | None -> it.name)
               w.items)))
  in
  Printf.printf "# %s: %d compiles, %d simulations in %.1f s, emitted C digest %s\n"
    args.workload !attempted
    (List.fold_left (fun a it -> a + List.length (samples sim_ms it)) 0 w.items)
    (ms_between t0 (now_ns ()) /. 1e3) digest;
  let failed =
    List.fold_left
      (fun a it ->
        if Hashtbl.mem failed_programs it.name then a + List.length (samples compile_ms it)
        else a)
      0 w.items
  in
  (* Each program's timing is the median of its cold compiles in the run:
     its fastest compile depends on whether the run met one of the
     machine's short fast moments, and moved far more between runs. *)
  let typical_compile = List.map (typical compile_ms) w.items in
  (* each program's simulation throughput from its median simulation; the
     geometric mean weighs programs equally *)
  let minst_per_s it = float_of_int (sim it).Machine.instances /. typical sim_ms it /. 1e3 in
  let sum = List.fold_left ( +. ) 0. in
  let times =
    [
      ("compile_ms.p50", "ms", percentile 0.5 typical_compile);
      ("compile_ms.p90", "ms", percentile 0.9 typical_compile);
      ("pass_s", "s", sum typical_compile /. 1e3);
      ("setup_s", "s", median !setups);
    ]
  in
  let throughput = geomean (List.map minst_per_s simulated) in
  let probe_ms = median !probes in
  let scale = probe_ref_ms /. probe_ms in
  Printf.printf "# speed probe median %.4f ms over %d probes; unscaled:%s sim_minst_per_s %.4f\n"
    probe_ms (List.length !probes)
    (String.concat "" (List.map (fun (k, _, v) -> Printf.sprintf " %s %.4f" k v) times))
    throughput;
  print_result ~attempted:!attempted ~failed
    (List.map (fun (k, unit, v) -> (k, unit, v *. scale)) times
    @ [
        ("gflops.geomean", "GFLOPS", geomean (List.map (fun it -> (sim it).Machine.gflops) simulated));
        ("sim_minst_per_s", "Minst/s", throughput /. scale);
        ("pass_ratio", "ratio", 1. -. ratio failed !attempted);
        ("full_rung_ratio", "ratio", ratio !full_rung !attempted);
        ("peak_rss_mb", "MB", peak_mb);
      ])

(* ----------------------------- traced run -------------------------------- *)

(* Spans live in memory and are written out at the end.  [trace_id] groups
   the spans of one compile (or one machine run). *)
type span = {
  id : int;
  parent : int;  (** -1 at the root *)
  trace_id : int;
  sname : string;
  start_ns : int64;
  mutable end_ns : int64;
  mutable attrs : (string * int) list;
}

let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let cur_trace = ref 0

let span ?(attrs = fun _ -> []) name f =
  let id = !next_id in
  incr next_id;
  let s =
    { id; parent = (match !stack with p :: _ -> p | [] -> -1); trace_id = !cur_trace;
      sname = name; start_ns = now_ns (); end_ns = 0L; attrs = [] }
  in
  spans := s :: !spans;
  stack := id :: !stack;
  let finish () =
    s.end_ns <- now_ns ();
    stack := List.tl !stack
  in
  match f () with
  | v ->
      finish ();
      s.attrs <- attrs v;
      v
  | exception e ->
      finish ();
      raise e

(* The ladder of [Driver.compile_robust ~verify:true], rebuilt from the
   public calls of each layer so that every layer gets its own span.  Its
   emitted C is compared byte for byte with the untraced compile. *)
let traced_ladder (options : Driver.options) p =
  let validate (r : Driver.result) =
    Verify.ok
      (span "verify.validate" (fun () ->
           Verify.validate r.Driver.program r.Driver.deps r.Driver.transform
             r.Driver.code))
  in
  let deps ~input_deps =
    span "deps.compute"
      ~attrs:(fun ds -> [ ("edges", List.length ds) ])
      (fun () -> Deps.compute ~input_deps ~reductions:options.Driver.reductions p)
  in
  let codegen d tr ~options =
    span "driver.compile_with_transform"
      ~attrs:(fun (r : Driver.result) -> [ ("ast_nodes", Codegen.size r.Driver.code) ])
      (fun () -> Driver.compile_with_transform ~options p d tr)
  in
  let rung what f =
    match Driver.attempt ~what f with
    | Ok (Some r) when (try validate r with _ -> false) -> Some r
    | _ -> None
  in
  let auto_cfg = options.Driver.auto in
  let fast () =
    if not options.Driver.fast_schedule then None
    else
      rung "fast" (fun () ->
          let d = deps ~input_deps:auto_cfg.Pluto.Auto.input_deps in
          match
            span "fastmatch.schedule" (fun () ->
                Pluto.Fastmatch.schedule ~config:auto_cfg p d)
          with
          | exception Pluto.Fastmatch.No_fast_schedule _ -> None
          | tr -> Some (codegen d tr ~options))
  in
  let ilp () =
    rung "ilp" (fun () ->
        let d = deps ~input_deps:auto_cfg.Pluto.Auto.input_deps in
        let tr = span "auto.transform" (fun () -> Pluto.Auto.transform ~config:auto_cfg p d) in
        Some (codegen d tr ~options))
  in
  let feautrier () =
    rung "feautrier" (fun () ->
        let d = deps ~input_deps:false in
        let config =
          { Feautrier_core.config with
            Pluto.Auto.budget = auto_cfg.Pluto.Auto.budget;
            Pluto.Auto.search_time_limit_s = auto_cfg.Pluto.Auto.search_time_limit_s }
        in
        let tr, fco =
          span "feautrier.schedule" (fun () ->
              Feautrier_core.scheduling_transform ~config p d)
        in
        let options = if fco then options else { options with Driver.tile = false } in
        Some (codegen d tr ~options))
  in
  let identity () =
    rung "identity" (fun () ->
        Some (span "driver.compile_original" (fun () -> Driver.compile_original ~options p)))
  in
  let ( |? ) a b = match a with Some _ -> a | None -> b () in
  Option.map (fun r -> (r, Fast)) (fast ())
  |? (fun () -> Option.map (fun r -> (r, Ilp)) (ilp ()))
  |? (fun () -> Option.map (fun r -> (r, Feautrier)) (feautrier ()))
  |? fun () -> Option.map (fun r -> (r, Identity)) (identity ())

(* The per-layer counters recorded on each compile's root span: solver work
   and the cache hit/miss counts that show every compile started cold. *)
let traced_counter_keys =
  [ "milp.solves"; "milp.pivots"; "milp.bb_nodes"; "milp.cold_builds";
    "milp.warm_starts"; "milp.feasible_cache_hits"; "milp.feasible_cache_misses";
    "milp.lp_cache_hits"; "milp.lp_cache_misses"; "poly.empty_cache_hits";
    "poly.empty_cache_misses"; "fm.eliminations"; "fm.rows_eliminated" ]

let counter_attrs keys = List.filter (fun (k, _) -> List.mem k keys) (Stats.counters ())

type traced = {
  t_ms : float;
  t_result : (Driver.result * rung * string) option;
  t_counters : (string * int) list;  (** [traced_counter_keys] only *)
  t_minor_words : float;
  t_major : int;
}

let traced_compile options (it : item) =
  cold ();
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let res =
    span "compile"
      ~attrs:(fun _ -> counter_attrs traced_counter_keys)
      (fun () ->
        match
          span "frontend.parse" (fun () ->
              Frontend.parse_program_diag ~name:it.name it.source)
        with
        | Error _ -> None
        | Ok (p, _) ->
            Option.map
              (fun (r, rung) ->
                (r, rung, span "codegen.print_c" (fun () -> print_c r)))
              (traced_ladder options p))
  in
  let t1 = now_ns () in
  let g1 = Gc.quick_stat () in
  {
    t_ms = ms_between t0 t1;
    t_result = res;
    t_counters = counter_attrs traced_counter_keys;
    t_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    t_major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let write_spans args =
  let dir = "perfbench/out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/trace-%s-seed%d.json" dir args.workload args.seed in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"id\": %d, \"parent\": %d, \"trace\": %d, \"name\": %S, \
             \"start_ns\": %Ld, \"end_ns\": %Ld%s}"
            (if i = 0 then "" else ",\n")
            s.id s.parent s.trace_id s.sname s.start_ns s.end_ns
            (String.concat ""
               (List.map (fun (k, v) -> Printf.sprintf ", %S: %d" k v) s.attrs)))
        (List.rev !spans);
      output_string oc "\n]\n");
  Printf.printf "# %d spans written to %s\n" (List.length !spans) path

let traced_run args w =
  let rng = Random.State.make [| args.seed |] in
  let order = Array.of_list w.items in
  shuffle rng order;
  let refs = Hashtbl.create 64 in
  let untraced_ms = ref 0. in
  (* an untraced and a traced compile of each item back to back, so that
     the overhead compares like with like *)
  let results =
    List.mapi
      (fun i it ->
        let o = compile w.options it in
        check_repeat refs it o;
        untraced_ms := !untraced_ms +. o.o_ms;
        cur_trace := i;
        let t = traced_compile w.options it in
        (match (t.t_result, Hashtbl.find_opt refs it.name) with
        | Some (_, _, c), Some ref_ when c = ref_.r_c -> ()
        | Some _, Some _ -> fail it "traced C differs from Driver.compile_robust's"
        | None, Some _ -> fail it "traced ladder failed where compile_robust succeeded"
        | _, None -> ());
        if
          Result.is_ok o.o_result
          && t.t_counters
             <> List.filter (fun (k, _) -> List.mem k traced_counter_keys) o.o_counters
        then
          fail it "traced ladder's solver counters differ from compile_robust's";
        (it, t))
      (Array.to_list order)
  in
  let n = List.length results in
  check_all_correct w.items refs;
  (* machine layer: every emitted program is simulated untraced, then
     traced (its GFLOPS must repeat exactly), then equivalence-checked *)
  let compiled = List.filter (fun it -> Hashtbl.mem refs it.name) w.items in
  let traced_sim =
    List.mapi
      (fun i it ->
        cur_trace := n + i;
        let r = (Hashtbl.find refs it.name).r_result in
        let s0, _ = simulate it r in
        Stats.reset ();
        let s =
          span "machine.simulate"
            ~attrs:(fun _ ->
              counter_attrs [ "machine.mem_accesses"; "machine.l1_misses"; "machine.l2_misses" ])
            (fun () ->
              Machine.simulate Machine.default_machine r.Driver.code
                ~params:(params_of r it.sim_params))
        in
        check_same_gflops it s0 s;
        ignore
          (span "machine.equivalent" (fun () ->
               Machine.equivalent r.Driver.program r.Driver.code
                 ~params:(params_of r it.check_params)));
        (it, s))
      compiled
  in
  write_spans args;
  let span_ms name =
    List.fold_left
      (fun a s -> if s.sname = name then a +. ms_between s.start_ns s.end_ns else a)
      0. !spans
  in
  let span_count name = List.length (List.filter (fun s -> s.sname = name) !spans) in
  let span_attr name key =
    List.fold_left
      (fun a s ->
        if s.sname = name then a + Option.value ~default:0 (List.assoc_opt key s.attrs)
        else a)
      0 !spans
  in
  let ctr k =
    List.fold_left
      (fun a (_, t) -> a + Option.value ~default:0 (List.assoc_opt k t.t_counters))
      0 results
  in
  let count k = float_of_int (ctr k) in
  let rung_count rung =
    List.length
      (List.filter
         (fun (_, t) -> match t.t_result with Some (_, r, _) -> r = rung | None -> false)
         results)
  in
  let share rung = ratio (rung_count rung) n in
  let hit_ratio h m = ratio (ctr h) (ctr h + ctr m) in
  let mach k = float_of_int (span_attr "machine.simulate" k) in
  let traced_ms = List.fold_left (fun a (_, t) -> a +. t.t_ms) 0. results in
  let per_kernel =
    List.map
      (fun (it, s) -> (it.name, (List.assq it results).t_ms, s.Machine.gflops))
      traced_sim
  in
  print_result ~attempted:n ~failed:(Hashtbl.length failed_programs)
    ([
       ("frontend.parse_ms", "ms", span_ms "frontend.parse");
       ("deps.compute_ms", "ms", span_ms "deps.compute");
       ("deps.edges", "count", float_of_int (span_attr "deps.compute" "edges"));
       ("fastmatch.schedule_ms", "ms", span_ms "fastmatch.schedule");
       ("fastmatch.accept_ratio", "ratio", ratio (rung_count Fast) (span_count "fastmatch.schedule"));
       ("auto.transform_ms", "ms", span_ms "auto.transform");
       ("codegen.ms", "ms", span_ms "driver.compile_with_transform");
       ("codegen.ast_nodes", "count",
        float_of_int (span_attr "driver.compile_with_transform" "ast_nodes"));
       ("codegen.print_ms", "ms", span_ms "codegen.print_c");
       ("verify.validate_ms", "ms", span_ms "verify.validate");
       ("milp.solves", "count", count "milp.solves");
       ("milp.pivots", "count", count "milp.pivots");
       ("milp.bb_nodes", "count", count "milp.bb_nodes");
       ("milp.cold_builds", "count", count "milp.cold_builds");
       ("milp.warm_starts", "count", count "milp.warm_starts");
       ("milp.ms_per_pivot", "ms", traced_ms /. float_of_int (max 1 (ctr "milp.pivots")));
       ("milp.feasible_cache_hit_ratio", "ratio",
        hit_ratio "milp.feasible_cache_hits" "milp.feasible_cache_misses");
       ("milp.lp_cache_hit_ratio", "ratio", hit_ratio "milp.lp_cache_hits" "milp.lp_cache_misses");
       ("fm.eliminations", "count", count "fm.eliminations");
       ("fm.rows_eliminated", "count", count "fm.rows_eliminated");
       ("poly.empty_cache_hit_ratio", "ratio",
        hit_ratio "poly.empty_cache_hits" "poly.empty_cache_misses");
       ("gc.minor_mwords", "Mwords",
        List.fold_left (fun a (_, t) -> a +. t.t_minor_words) 0. results /. 1e6 /. float n);
       ("gc.major_collections", "count",
        float_of_int (List.fold_left (fun a (_, t) -> a + t.t_major) 0 results) /. float n);
       ("driver.rung_fast", "ratio", share Fast);
       ("driver.rung_ilp", "ratio", share Ilp);
       ("driver.rung_feautrier", "ratio", share Feautrier);
       ("driver.rung_identity", "ratio", share Identity);
       ("machine.simulate_ms", "ms", span_ms "machine.simulate");
       ("machine.mem_accesses", "count", mach "machine.mem_accesses");
       ("machine.l1_misses", "count", mach "machine.l1_misses");
       ("machine.l2_misses", "count", mach "machine.l2_misses");
       ("machine.equivalent_ms", "ms", span_ms "machine.equivalent");
       ("trace.overhead_pct", "%", (traced_ms -. !untraced_ms) /. !untraced_ms *. 100.);
     ]
    @ List.concat_map
        (fun (name, ms, g) ->
          [ ("compile_ms." ^ name, "ms", ms); ("gflops." ^ name, "GFLOPS", g) ])
        per_kernel)

let () =
  let args = parse_args () in
  let workload, setup_s = setup args in
  if args.trace then traced_run args workload else untraced args workload setup_s
