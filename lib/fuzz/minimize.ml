(* ddmin over IR programs. All phases run to a joint fixpoint or until
   the predicate-evaluation budget is spent. *)

open Cwsp_ir
module Obs = Cwsp_obs.Obs

(* Delete flat instruction positions [lo, hi) of a function. *)
let delete_range (fn : Prog.func) lo hi =
  let k = ref (-1) in
  let blocks =
    Array.map
      (fun (b : Prog.block) ->
        {
          b with
          instrs =
            List.filter
              (fun _ ->
                incr k;
                !k < lo || !k >= hi)
              b.instrs;
        })
      fn.blocks
  in
  { fn with blocks }

let minimize ?(budget = 3000) ~pred (prog : Prog.t) : Prog.t =
  Obs.time ~cat:"fuzz" "minimize" (fun () ->
    let budget = ref budget in
    let try_ cand =
      !budget > 0
      && begin
           decr budget;
           Validate.check cand = [] && (try pred cand with _ -> false)
         end
    in
    let cur = ref prog in
    let changed = ref true in
    while !changed && !budget > 0 do
      changed := false;
      (* 1. drop whole functions (repeat: removing a caller frees its
         callees, e.g. the allocator chain) *)
      let rec drop_funcs () =
        let dropped = ref false in
        List.iter
          (fun (name, _) ->
            if name <> (!cur).main then begin
              let cand =
                { !cur with funcs = List.filter (fun (n, _) -> n <> name) (!cur).funcs }
              in
              if try_ cand then begin
                cur := cand;
                dropped := true;
                changed := true
              end
            end)
          (!cur).funcs;
        if !dropped && !budget > 0 then drop_funcs ()
      in
      drop_funcs ();
      (* 2. drop globals *)
      List.iter
        (fun (g : Prog.global) ->
          let cand =
            {
              !cur with
              globals =
                List.filter (fun (x : Prog.global) -> x.gname <> g.gname) (!cur).globals;
            }
          in
          if try_ cand then begin
            cur := cand;
            changed := true
          end)
        (!cur).globals;
      (* 3. straighten branches: a Br collapsed to a Jmp disconnects loop
         bodies, which phase 4 then deletes wholesale *)
      List.iter
        (fun (name, _) ->
          match List.assoc_opt name (!cur).funcs with
          | None -> ()
          | Some fn0 ->
            Array.iteri
              (fun bi _ ->
                (* re-read the block each time: once a Br became a Jmp it
                   must not be "rewritten" again (a no-op candidate would
                   burn the budget without progress) *)
                match List.assoc_opt name (!cur).funcs with
                | Some (fn : Prog.func) when bi < Array.length fn.blocks -> (
                  match fn.blocks.(bi).term with
                  | Types.Br (_, a, bl) ->
                    List.iter
                      (fun target ->
                        match List.assoc_opt name (!cur).funcs with
                        | Some (fn : Prog.func) -> (
                          match fn.blocks.(bi).term with
                          | Types.Br _ ->
                            let blocks = Array.copy fn.blocks in
                            blocks.(bi) <-
                              { (blocks.(bi)) with term = Types.Jmp target };
                            let cand = Prog.with_func !cur { fn with blocks } in
                            if try_ cand then begin
                              cur := cand;
                              changed := true
                            end
                          | _ -> ())
                        | None -> ())
                      [ a; bl ]
                  | _ -> ())
                | _ -> ())
              fn0.blocks)
        (!cur).funcs;
      (* 4. ddmin over each function's flat instruction list *)
      List.iter
        (fun (name, _) ->
          let count () =
            match List.assoc_opt name (!cur).funcs with
            | Some fn -> Prog.instr_count fn
            | None -> 0
          in
          let chunk = ref (max 1 (count () / 2)) in
          while !chunk >= 1 && !budget > 0 do
            let start = ref 0 in
            while !start < count () && !budget > 0 do
              (match List.assoc_opt name (!cur).funcs with
              | None -> start := max_int
              | Some fn ->
                let n = Prog.instr_count fn in
                let hi = min (!start + !chunk) n in
                let cand = Prog.with_func !cur (delete_range fn !start hi) in
                if try_ cand then begin
                  cur := cand;
                  changed := true
                  (* positions shifted down; rescan from the same start *)
                end
                else start := !start + !chunk);
              ()
            done;
            if !chunk = 1 then chunk := 0 else chunk := !chunk / 2
          done)
        (!cur).funcs;
    done;
    !cur)
