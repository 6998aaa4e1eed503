(* See fault.mli.  The fail/pass decision hashes (seed, site, n) with MD5 —
   already a dependency via Digest — so schedules are reproducible across
   runs and independent of anything else the process hashed.  State is two
   process-global refs; forked workers inherit both the configuration and
   the per-site counters at fork time, which keeps a whole chaos run
   deterministic for a fixed task-to-worker assignment. *)

type config = {
  seed : int;
  rate : float;
  only : string list;
  fail_at : (string * int list) list;
}

let none = { seed = 0; rate = 0.0; only = []; fail_at = [] }

(* ------------------------------ environment ------------------------------ *)

let getenv name =
  match Sys.getenv_opt name with
  | Some s when String.trim s <> "" -> Some (String.trim s)
  | _ -> None

let split_commas s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun x -> x <> "")

(* "site@3,site@7,other@1" -> [(site, [3; 7]); (other, [1])] ; malformed
   entries are ignored (fault injection must never itself be a crash). *)
let parse_fail_at s =
  List.fold_left
    (fun acc entry ->
      match String.rindex_opt entry '@' with
      | None -> acc
      | Some i -> (
          let site = String.sub entry 0 i in
          let n = String.sub entry (i + 1) (String.length entry - i - 1) in
          match int_of_string_opt n with
          | Some n when n > 0 && site <> "" -> (
              match List.assoc_opt site acc with
              | Some ns ->
                  (site, ns @ [ n ]) :: List.remove_assoc site acc
              | None -> (site, [ n ]) :: acc)
          | _ -> acc))
    [] (split_commas s)
  |> List.rev

let of_env () =
  let seed = Option.bind (getenv "PLUTO_FAULT_SEED") int_of_string_opt in
  let rate = Option.bind (getenv "PLUTO_FAULT_RATE") float_of_string_opt in
  let only = Option.map split_commas (getenv "PLUTO_FAULT_ONLY") in
  let fail_at = Option.map parse_fail_at (getenv "PLUTO_FAULT_AT") in
  match (seed, rate, only, fail_at) with
  | None, None, None, None -> None
  | _ ->
      Some
        {
          seed = Option.value seed ~default:0;
          rate =
            (match rate with
            | Some r -> Float.max 0.0 (Float.min 1.0 r)
            | None -> if fail_at = None then 0.01 else 0.0);
          only = Option.value only ~default:[];
          fail_at = Option.value fail_at ~default:[];
        }

(* --------------------------------- state --------------------------------- *)

(* [None] = environment not consulted yet; [Some c] = decided. *)
let state : config option option ref = ref None
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let install c =
  Hashtbl.reset counts;
  state := Some c

let install_from_env () = install (of_env ())

let current () =
  match !state with
  | Some c -> c
  | None ->
      let c = of_env () in
      state := Some c;
      c

let enabled () = current () <> None

(* -------------------------------- firing --------------------------------- *)

let is_prefix ~affix s =
  String.length affix <= String.length s
  && String.equal affix (String.sub s 0 (String.length affix))

let allowed c site =
  c.only = [] || List.exists (fun p -> is_prefix ~affix:p site) c.only

(* First three MD5 bytes of (seed, site, n) as a uniform draw in [0,1). *)
let draw seed site n =
  let h = Digest.string (Printf.sprintf "%d\x00%s\x00%d" seed site n) in
  let v =
    (Char.code h.[0] lsl 16) lor (Char.code h.[1] lsl 8) lor Char.code h.[2]
  in
  float_of_int v /. 16777216.0

let fire_with ~rated site =
  match current () with
  | None -> false
  | Some c ->
      if not (allowed c site) then false
      else begin
        let n = Option.value (Hashtbl.find_opt counts site) ~default:0 + 1 in
        Hashtbl.replace counts site n;
        let hit =
          (match List.assoc_opt site c.fail_at with
          | Some ns -> List.mem n ns
          | None -> false)
          || (rated && c.rate > 0.0 && draw c.seed site n < c.rate)
        in
        if hit then begin
          Stats.incr "fault.injected";
          Stats.incr ("fault." ^ site)
        end;
        hit
      end

let fire = fire_with ~rated:true
let fire_at = fire_with ~rated:false

let sys_error site =
  if fire site then raise (Sys_error ("injected fault: " ^ site))

let unix_error site err fn =
  if fire site then raise (Unix.Unix_error (err, fn, "injected fault: " ^ site))

(* Deterministic position inside [s], derived from the site's call count so
   repeated injections hit different bytes. *)
let position site s =
  let n = Option.value (Hashtbl.find_opt counts site) ~default:0 in
  let h = Digest.string (Printf.sprintf "%s\x00pos\x00%d" site n) in
  (Char.code h.[0] lsl 16) lor (Char.code h.[1] lsl 8) lor Char.code h.[2]
  |> fun v -> v mod String.length s

let mangle site s =
  if String.length s = 0 || not (fire site) then s
  else begin
    let i = position site s in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
    Bytes.to_string b
  end

let truncate site s =
  if String.length s = 0 || not (fire site) then s
  else String.sub s 0 (position site s)

let describe c =
  Printf.sprintf "seed=%d rate=%g only=[%s] fail_at=[%s]" c.seed c.rate
    (String.concat "," c.only)
    (String.concat ","
       (List.concat_map
          (fun (site, ns) ->
            List.map (fun n -> Printf.sprintf "%s@%d" site n) ns)
          c.fail_at))
