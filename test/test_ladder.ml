(* The degradation ladder of [Driver.compile_robust], pinned.  For every
   kernel of the corpus and the crippled/starved jacobi-1d programs of the
   robustness suite, with the fast rung on and off, the rung taken and the
   codes, severities and order of the diagnostics under every combination
   of [strict] and [verify] must match the table below, so any change in
   which rung runs, or in what the ladder reports, shows up here.  A second
   test walks the ["schedule.corrupt"] fault site through the same modes. *)

let sev = function Diag.Error -> "E" | Diag.Warning -> "W" | Diag.Note -> "N"

(* "<rung> <code>:<sev> ...", or "error <code>:<sev> ..." *)
let signature outcome =
  let head, ds =
    match outcome with
    | Error ds -> ("error", ds)
    | Ok (_, ds) ->
        ( (if Diag.has_code ds "fastpath-accepted" then "fast"
           else if Diag.has_code ds "degraded-identity" then "identity"
           else if Diag.has_code ds "degraded-feautrier" then "feautrier"
           else "ilp"),
          ds )
  in
  String.concat " "
    (head :: List.map (fun d -> d.Diag.code ^ ":" ^ sev d.Diag.sev) ds)

(* (strict, verify), in the order of every expectation list below *)
let modes = [ (false, false); (false, true); (true, false); (true, true) ]

(* the same outcome in every mode; [a] without strict, [b] under it *)
let all4 s = [ s; s; s; s ]
let strict2 a b = [ a; a; b; b ]

let expected =
  [
    ("jacobi-1d-imper", true, all4 "ilp fastpath-rejected:W");
    ("jacobi-1d-imper", false, all4 "ilp");
    ("fdtd-2d", true, all4 "fast fastpath-accepted:N");
    ("fdtd-2d", false, all4 "ilp");
    ("lu", true, all4 "fast fastpath-accepted:N");
    ("lu", false, all4 "ilp");
    ("mvt", true, all4 "fast fastpath-accepted:N");
    ("mvt", false, all4 "ilp");
    ("seidel", true, all4 "fast fastpath-accepted:N");
    ("seidel", false, all4 "ilp");
    ("matmul", true, all4 "fast fastpath-accepted:N");
    ("matmul", false, all4 "ilp");
    ("jacobi-2d", true, all4 "fast fastpath-accepted:N");
    ("jacobi-2d", false, all4 "ilp");
    ("gemver", true, all4 "ilp fastpath-rejected:W");
    ("gemver", false, all4 "ilp");
    ("trmm", true, all4 "fast fastpath-accepted:N");
    ("trmm", false, all4 "ilp");
    ("2mm", true, all4 "fast fastpath-accepted:N");
    ("2mm", false, all4 "ilp");
    ("syrk", true, all4 "fast fastpath-accepted:N");
    ("syrk", false, all4 "ilp");
    ("doitgen", true, all4 "fast fastpath-accepted:N");
    ("doitgen", false, all4 "ilp");
    ("gesummv", true, all4 "fast fastpath-accepted:N");
    ("gesummv", false, all4 "ilp");
    ("dot", true, all4 "fast fastpath-accepted:N");
    ("dot", false, all4 "ilp");
    ("histogram", true, all4 "fast fastpath-accepted:N");
    ("histogram", false, all4 "ilp");
    ("crippled", true, strict2 "feautrier fastpath-rejected:W no-transform:W degraded-feautrier:W" "error no-transform:E");
    ("crippled", false, strict2 "feautrier no-transform:W degraded-feautrier:W" "error no-transform:E");
    ("starved", true, strict2 "identity fastpath-rejected:W no-transform:W degraded-feautrier:W budget:W degraded-identity:W" "error no-transform:E");
    ("starved", false, strict2 "identity no-transform:W degraded-feautrier:W budget:W degraded-identity:W" "error no-transform:E");
  ]

let program_of name =
  match name with
  | "crippled" ->
      ( Test_robustness.crippled_search_options,
        Kernels.program Kernels.jacobi_1d )
  | "starved" ->
      (Test_robustness.starved_options, Kernels.program Kernels.jacobi_1d)
  | _ ->
      ( Driver.default_options,
        Kernels.program
          (List.find (fun (k : Kernels.t) -> k.Kernels.name = name) Kernels.all)
      )

let check_modes ?(before = ignore) ~name ~options p sigs =
  List.iter2
    (fun (strict, verify) want ->
      before ();
      Alcotest.(check string)
        (Printf.sprintf "%s fast=%b strict=%b verify=%b" name
           options.Driver.fast_schedule strict verify)
        want
        (signature (Driver.compile_robust ~options ~strict ~verify p)))
    modes sigs

let test_pinned () =
  Alcotest.(check int) "every kernel is pinned, fast on and off"
    (2 * List.length Kernels.all)
    (List.length expected - 4);
  List.iter
    (fun (name, fast, sigs) ->
      let options, p = program_of name in
      check_modes ~name ~options:{ options with Driver.fast_schedule = fast } p
        sigs)
    expected

(* The first schedule to reach code generation is corrupted.  matmul: the
   fast rung's, which the validator always checks, so the exact ILP takes
   over.  jacobi-1d: the fast rung refuses before code generation, so the
   ILP's schedule is hit and only [verify] catches it. *)
let test_corrupted () =
  let arm () =
    Fault.install
      (Some { Fault.none with Fault.fail_at = [ ("schedule.corrupt", [ 1 ]) ] })
  in
  let corrupted (k : Kernels.t) sigs =
    Fun.protect
      ~finally:(fun () -> Fault.install None)
      (fun () ->
        check_modes ~before:arm ~name:(k.Kernels.name ^ " corrupted")
          ~options:Driver.default_options (Kernels.program k) sigs)
  in
  corrupted Kernels.matmul (all4 "ilp fastpath-rejected:W");
  corrupted Kernels.jacobi_1d
    [
      "ilp fastpath-rejected:W";
      "feautrier fastpath-rejected:W verify-failed:W degraded-feautrier:W";
      "ilp fastpath-rejected:W";
      "error verify-failed:E";
    ]

let suite =
  ( "ladder",
    [
      Alcotest.test_case "pinned rungs and diagnostics" `Quick test_pinned;
      Alcotest.test_case "schedule.corrupt through the ladder" `Quick
        test_corrupted;
    ] )
