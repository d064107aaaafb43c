(** The cWSP compiler driver: region formation, checkpoint insertion,
    checkpoint pruning, and global boundary-id renumbering.

    Different persistence schemes consume different compile configurations:
    the plain baseline runs the uninstrumented binary, iDO-style schemes
    run without checkpoint pruning, and cWSP runs the full pipeline —
    mirroring how the paper builds one binary per scheme from the same
    source (Section IX). *)

open Cwsp_ir
open Cwsp_idem
open Cwsp_ckpt
module Obs = Cwsp_obs.Obs

(* Per-function totals across every compile in the process (obs;
   exported into metrics.json when instrumentation is on). *)
let c_compiles = Obs.Counter.make "compiler.compiles"
let c_funcs = Obs.Counter.make "compiler.functions"
let c_regions = Obs.Counter.make "compiler.regions"
let c_inserted = Obs.Counter.make "compiler.ckpts_inserted"
let c_kept = Obs.Counter.make "compiler.ckpts_kept"

type persist_mode =
  | Implicit (* the cWSP hardware persists committed stores transparently *)
  | Explicit (* compiler-inserted flush/pfence discharge every store *)

type config = {
  optimize : bool; (* -O3-style scalar opts before region formation *)
  region_formation : bool;
  checkpoints : bool;
  pruning : bool;
  persist_mode : persist_mode;
}

let baseline =
  { optimize = true; region_formation = false; checkpoints = false;
    pruning = false; persist_mode = Implicit }

let regions_only =
  { optimize = true; region_formation = true; checkpoints = false;
    pruning = false; persist_mode = Implicit }

let cwsp_no_prune =
  { optimize = true; region_formation = true; checkpoints = true;
    pruning = false; persist_mode = Implicit }

let cwsp =
  { optimize = true; region_formation = true; checkpoints = true;
    pruning = true; persist_mode = Implicit }

let explicit_of c = { c with persist_mode = Explicit }
let cwsp_explicit = explicit_of cwsp

let config_name c =
  let base =
    match (c.region_formation, c.checkpoints, c.pruning) with
    | false, _, _ -> "baseline"
    | true, false, _ -> "regions-only"
    | true, true, false -> "cwsp-no-prune"
    | true, true, true -> "cwsp"
  in
  let base = if c.optimize then base else base ^ "-noopt" in
  match c.persist_mode with Implicit -> base | Explicit -> base ^ "-explicit"

type func_report = {
  fr_name : string;
  static_instrs : int;
  static_regions : int;
  ckpts_inserted : int;
  ckpts_kept : int;
}

type compiled = {
  prog : Prog.t;
  cconfig : config;
  (* recovery slices indexed by *global* boundary id; empty when the
     configuration has no checkpoints *)
  slices : Slice.t array;
  boundary_owner : string array; (* owning function per global boundary id *)
  reports : func_report list;
}

let nboundaries (c : compiled) = Array.length c.slices

(* Optional post-compile hook: the verifier registers itself here so that
   every compile in the process has its output independently checked.
   Kept as an injection point (rather than a direct dependency) because
   the verifier library depends on this one. *)
let post_compile_hook : (compiled -> unit) option ref = ref None
let set_post_compile_hook f = post_compile_hook := Some f

let run_post_compile_hook c =
  (match !post_compile_hook with Some f -> f c | None -> ());
  c

(* Renumber boundary ids globally (dense, program-wide) and rekey the
   per-function slice tables accordingly. *)
let renumber (funcs : (string * Prog.func * (int, Slice.t) Hashtbl.t) list) :
    Prog.func list * Slice.t array * string array =
  let next = ref 0 in
  let slices = ref [] and owners = ref [] in
  let funcs' =
    List.map
      (fun (name, (fn : Prog.func), tbl) ->
        let blocks =
          Array.map
            (fun (blk : Prog.block) ->
              let instrs =
                List.map
                  (fun ins ->
                    match ins with
                    | Types.Boundary old_id ->
                      let gid = !next in
                      incr next;
                      let slice =
                        Option.value ~default:[] (Hashtbl.find_opt tbl old_id)
                      in
                      slices := slice :: !slices;
                      owners := name :: !owners;
                      Types.Boundary gid
                    | _ -> ins)
                  blk.instrs
              in
              { blk with instrs })
            fn.blocks
        in
        { fn with blocks })
      funcs
  in
  (funcs', Array.of_list (List.rev !slices), Array.of_list (List.rev !owners))

(* The half of a compile that does not depend on the persistency mode:
   validate, optimize, form regions, insert and prune checkpoints,
   renumber. Its reports count the instructions before the back end. *)
let front_end ~config (p : Prog.t) : compiled =
  Validate.check_exn p;
  let p =
    if config.optimize then begin
      Obs.span_begin ~cat:"compiler" "opt";
      let p = Opt.run p in
      Obs.span_end ();
      p
    end
    else p
  in
  Validate.check_exn p;
  if not config.region_formation then
    {
      prog = p;
      cconfig = config;
      slices = [||];
      boundary_owner = [||];
      reports =
        List.map
          (fun (n, f) ->
            {
              fr_name = n;
              static_instrs = Prog.instr_count f;
              static_regions = 0;
              ckpts_inserted = 0;
              ckpts_kept = 0;
            })
          p.funcs;
    }
  else begin
    let reports = ref [] in
    let processed =
      List.map
        (fun (name, fn) ->
          Obs.span_begin ~cat:"compiler" name;
          let fn_regions = Region_form.run_func fn in
          let fn_final, tbl, inserted, kept =
            if config.checkpoints then begin
              let r = Pass.run_func ~prune:config.pruning fn_regions in
              (r.fn, r.slices, r.inserted, r.kept)
            end
            else (fn_regions, Hashtbl.create 0, 0, 0)
          in
          Obs.span_end ();
          reports :=
            {
              fr_name = name;
              static_instrs = Prog.instr_count fn_final;
              static_regions = Region_form.boundary_count fn_final;
              ckpts_inserted = inserted;
              ckpts_kept = kept;
            }
            :: !reports;
          (name, fn_final, tbl))
        p.funcs
    in
    let funcs', slices, owners = renumber processed in
    let prog =
      { p with funcs = List.map (fun (f : Prog.func) -> (f.name, f)) funcs' }
    in
    { prog; cconfig = config; slices; boundary_owner = owners;
      reports = List.rev !reports }
  end

(* The mode's half, on a front end: explicit flush/pfence insertion, the
   final check and instruction recount, the hook. The arrays are copied,
   so no two results share one. *)
let back_end ~config (fe : compiled) : compiled =
  let c =
    {
      fe with
      cconfig = config;
      slices = Array.copy fe.slices;
      boundary_owner = Array.copy fe.boundary_owner;
    }
  in
  if not config.region_formation then run_post_compile_hook c
  else begin
    (* Explicit persistency: discharge durability obligations after the
       ids are final (inserted flushes never add boundaries or ckpts, so
       the global numbering and the slice tables stay valid). *)
    let prog =
      match config.persist_mode with
      | Implicit -> fe.prog
      | Explicit ->
        Obs.span_begin ~cat:"compiler" "persist_insert";
        let prog = Persist_insert.run fe.prog in
        Obs.span_end ();
        prog
    in
    Validate.check_exn prog;
    let reports =
      List.map
        (fun r ->
          match List.assoc_opt r.fr_name prog.funcs with
          | Some fn -> { r with static_instrs = Prog.instr_count fn }
          | None -> r)
        fe.reports
    in
    run_post_compile_hook { c with prog; reports }
  end

(* The last front end this domain built, held by an ephemeron on its
   source: the source is compared by physical equality (a [Prog.t] is
   immutable), and once the caller drops it the front end goes too. A
   hit also needs the same configuration with the persistency mode
   erased, which the front end was built under. A fuzz exec compiles
   each program under [cwsp] and then [cwsp_explicit], so the second
   compile reuses the first one's front end. *)
let last_front : (Prog.t, compiled) Ephemeron.K1.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let compile_prog ~config (p : Prog.t) : compiled =
  let key = { config with persist_mode = Implicit } in
  let fe =
    match Option.bind (Domain.DLS.get last_front) (fun e -> Ephemeron.K1.query e p) with
    | Some fe when fe.cconfig = key -> fe
    | _ ->
      let fe = front_end ~config:key p in
      Domain.DLS.set last_front (Some (Ephemeron.K1.make p fe));
      fe
  in
  back_end ~config fe

let compile ?(config = cwsp) (p : Prog.t) : compiled =
  if not !Obs.on then compile_prog ~config p
  else begin
    Obs.span_begin ~cat:"compiler"
      ~args:[ ("funcs", float_of_int (List.length p.funcs)) ]
      "compile";
    Fun.protect ~finally:Obs.span_end (fun () ->
        let c = compile_prog ~config p in
        Obs.Counter.incr c_compiles;
        Obs.Counter.add c_funcs (List.length c.reports);
        List.iter
          (fun r ->
            Obs.Counter.add c_regions r.static_regions;
            Obs.Counter.add c_inserted r.ckpts_inserted;
            Obs.Counter.add c_kept r.ckpts_kept)
          c.reports;
        c)
  end

let report_to_string (c : compiled) =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "compile config: %s\n" (config_name c.cconfig);
  Printf.bprintf buf "global regions: %d\n" (nboundaries c);
  List.iter
    (fun r ->
      Printf.bprintf buf
        "  %-24s instrs=%-6d regions=%-5d ckpts: %d inserted, %d kept (%.0f%% pruned)\n"
        r.fr_name r.static_instrs r.static_regions r.ckpts_inserted r.ckpts_kept
        (if r.ckpts_inserted = 0 then 0.0
         else
           100.0
           *. float_of_int (r.ckpts_inserted - r.ckpts_kept)
           /. float_of_int r.ckpts_inserted))
    c.reports;
  Buffer.contents buf
