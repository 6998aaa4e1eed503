(* Translation validation: the independent checker of lib/verify must confirm
   legality + domain coverage for every seed kernel under the full paper
   pipeline, and must reject deliberately broken schedules. *)

let validate_kernel (k : Kernels.t) () =
  let r = Fixtures.compiled k in
  let params = Fixtures.check_params k in
  let rep =
    Verify.validate ~params r.Driver.program r.Driver.deps r.Driver.transform
      r.Driver.code
  in
  if not (Verify.ok rep) then
    Alcotest.failf "%s: %s" k.Kernels.name
      (Format.asprintf "%a" Verify.pp_report rep);
  Alcotest.(check bool)
    (k.Kernels.name ^ ": discharged at least one obligation")
    true
    (rep.Verify.legality_obligations > 0 || List.length r.Driver.deps = 0);
  Alcotest.(check bool)
    (k.Kernels.name ^ ": checked at least one instance")
    true
    (rep.Verify.instances_checked > 0)

(* The identity schedule (original order) must also validate: it satisfies
   every dependence by construction. *)
let validate_identity (k : Kernels.t) () =
  let r = Driver.compile_original (Kernels.program k) in
  let params = Fixtures.check_params k in
  let rep =
    Verify.validate ~params r.Driver.program r.Driver.deps r.Driver.transform
      r.Driver.code
  in
  if not (Verify.ok rep) then
    Alcotest.failf "%s identity: %s" k.Kernels.name
      (Format.asprintf "%a" Verify.pp_report rep)

(* ------------------------- broken-schedule rejection ---------------------- *)

let test_broken_schedule_rejected () =
  let k = Kernels.jacobi_1d in
  let p, deps = Fixtures.program_and_deps k in
  let t = Fixtures.transform k in
  let broken = Driver.corrupt_schedule t in
  Alcotest.(check bool) "the mutation changed the schedule" false
    (broken.Pluto.Types.rows = t.Pluto.Types.rows);
  let rep = Verify.validate_transform p deps broken in
  Alcotest.(check bool) "broken schedule rejected" false (Verify.ok rep);
  Alcotest.(check bool) "a legality violation is reported" true
    (List.exists
       (fun f ->
         f.Verify.f_code = "legality" || f.Verify.f_code = "satisfaction")
       rep.Verify.failures)

(* A schedule that maps two dependent instances to the same time vector must
   be caught by the ordering (lex-strictness) obligation: collapse jacobi's
   statements to a single constant level. *)
let test_unordered_schedule_rejected () =
  let k = Kernels.jacobi_1d in
  let p, deps = Fixtures.program_and_deps k in
  let t = Fixtures.transform k in
  let zero_rows =
    Array.map
      (fun (stmt_rows : int array array) ->
        Array.map (fun row -> Array.map (fun _ -> 0) row) stmt_rows)
      t.Pluto.Types.rows
  in
  let broken = { t with Pluto.Types.rows = zero_rows } in
  let rep = Verify.validate_transform p deps broken in
  Alcotest.(check bool) "constant schedule rejected" false (Verify.ok rep)

(* Coverage: a target whose scattering skips instances must be rejected.  We
   fake it by shrinking a statement's extended domain before codegen. *)
let test_coverage_mismatch_rejected () =
  let k = Kernels.matmul in
  let p, deps = Fixtures.program_and_deps k in
  let t = Pluto.Auto.identity_transform p deps in
  let tgt = Pluto.Tiling.untiled_target t in
  let clipped =
    match tgt.Pluto.Types.tstmts with
    | ts :: rest ->
        (* first extended iterator <= 1: drops most iterations of S1 *)
        let nv = ts.Pluto.Types.ext_domain.Polyhedra.nvars in
        let clip = Vec.zero (nv + 1) in
        clip.(0) <- Bigint.minus_one;
        clip.(nv) <- Bigint.one;
        let ext_domain =
          Polyhedra.add ts.Pluto.Types.ext_domain (Polyhedra.ge clip)
        in
        { tgt with Pluto.Types.tstmts = { ts with Pluto.Types.ext_domain } :: rest }
    | [] -> Alcotest.fail "no statements"
  in
  let cg = Codegen.generate clipped in
  let params = Fixtures.check_params k in
  let rep = Verify.validate_coverage ~params p cg in
  Alcotest.(check bool) "clipped scan rejected" false (Verify.ok rep);
  Alcotest.(check bool) "failure is a coverage failure" true
    (List.exists (fun f -> f.Verify.f_code = "coverage") rep.Verify.failures)

(* -------------------------- driver + CLI integration ---------------------- *)

let test_driver_verify () =
  let r = Fixtures.compiled Kernels.jacobi_1d in
  let rep = Driver.verify ~params:(Fixtures.check_params Kernels.jacobi_1d) r in
  Alcotest.(check bool) "driver verify passes" true (Verify.ok rep)

let plutocc = "../bin/plutocc.exe"

let run_cli ?(env = "") args =
  Sys.command
    (Printf.sprintf "%s %s %s > /dev/null 2> /dev/null" env plutocc args)

let with_kernel_file (k : Kernels.t) f =
  let path = Filename.temp_file "verify" ".c" in
  let oc = open_out path in
  output_string oc k.Kernels.source;
  close_out oc;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_cli_verify_ok () =
  if Sys.file_exists plutocc then
    with_kernel_file Kernels.jacobi_1d (fun path ->
        Alcotest.(check int) "--verify exits 0" 0
          (run_cli (Printf.sprintf "%s --verify --params T=5,N=14" path)))

(* jacobi-1d: the fast rung refuses before code generation, so the first
   schedule through the fault site is the exact ILP's. *)
let test_cli_verify_broken_schedule () =
  if Sys.file_exists plutocc then
    with_kernel_file Kernels.jacobi_1d (fun path ->
        let env = "PLUTO_FAULT_AT=schedule.corrupt@1" in
        let rc =
          run_cli ~env (Printf.sprintf "%s --verify --params T=5,N=14" path)
        in
        Alcotest.(check bool) "--verify rejects a broken schedule (exit <> 0)"
          true (rc <> 0);
        (* without --verify the broken schedule sails through: that is the
           point of having a validator *)
        Alcotest.(check int) "a corrupted schedule alone still emits code" 0
          (run_cli ~env path))

let suite =
  ( "verify",
    List.map
      (fun (k : Kernels.t) ->
        Alcotest.test_case ("validate " ^ k.Kernels.name) `Quick
          (validate_kernel k))
      Kernels.all
    @ [
        Alcotest.test_case "validate identity jacobi" `Quick
          (validate_identity Kernels.jacobi_1d);
        Alcotest.test_case "validate identity lu" `Quick
          (validate_identity Kernels.lu);
        Alcotest.test_case "broken schedule rejected" `Quick
          test_broken_schedule_rejected;
        Alcotest.test_case "unordered schedule rejected" `Quick
          test_unordered_schedule_rejected;
        Alcotest.test_case "coverage mismatch rejected" `Quick
          test_coverage_mismatch_rejected;
        Alcotest.test_case "Driver.verify" `Quick test_driver_verify;
        Alcotest.test_case "plutocc --verify ok" `Quick test_cli_verify_ok;
        Alcotest.test_case "plutocc --verify broken" `Quick
          test_cli_verify_broken_schedule;
      ] )
