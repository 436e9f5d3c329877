module G = R3_net.Graph
module Routing = R3_net.Routing
module Reconfig = R3_core.Reconfig

type t = {
  graph : G.t;
  failed : bool array;
  base : float array array;
  protection : float array array;
  pristine_base : float array array;
  pristine_protection : float array array;
}

let of_state (st : Reconfig.state) =
  let base = Routing.to_dense_matrix st.pristine_base in
  let protection = Routing.to_dense_matrix st.pristine_protection in
  {
    graph = st.graph;
    failed = Array.make (G.num_links st.graph) false;
    base;
    protection;
    pristine_base = base;
    pristine_protection = protection;
  }

let tol = R3_core.Config.default.R3_core.Config.rescale_tol

(* (8): entry [e] removed, the rest scaled by [1 / (1 - p_e(e))]; all
   zero when the link protects (almost) nothing but itself. *)
let detour row e =
  let xi = Array.make (Array.length row) 0.0 in
  let self = row.(e) in
  if self < 1.0 -. tol then begin
    let scale = 1.0 /. (1.0 -. self) in
    Array.iteri
      (fun l x ->
        let x = x *. scale in
        if l <> e && Float.abs x > 0.0 then xi.(l) <- x)
      row
  end;
  xi

(* (9)/(10) on one row. A positive share of [e] moves onto the detour's
   support, ascending; a [-0.0] or negative (solver noise) entry is only
   zeroed; a [+0.0] row is left as it is. *)
let fold_row ~e ~xi row =
  let on_e = row.(e) in
  if on_e > 0.0 then begin
    let row = Array.copy row in
    Array.iteri
      (fun l x -> if x <> 0.0 then row.(l) <- row.(l) +. (on_e *. x))
      xi;
    row.(e) <- 0.0;
    row
  end
  else if on_e <> 0.0 || Float.sign_bit on_e then begin
    let row = Array.copy row in
    row.(e) <- 0.0;
    row
  end
  else row

let fail_one t e =
  if t.failed.(e) then t
  else begin
    let xi = detour t.protection.(e) e in
    let failed = Array.copy t.failed in
    failed.(e) <- true;
    {
      t with
      failed;
      base = Array.map (fold_row ~e ~xi) t.base;
      protection =
        Array.mapi
          (fun k row -> if k = e then xi else fold_row ~e ~xi row)
          t.protection;
    }
  end

let fail t links = List.fold_left fail_one t links

let canonical_key g e =
  let rep = match G.reverse_link g e with Some r when r < e -> r | _ -> e in
  (rep * 2) + if e = rep then 0 else 1

let recover t links =
  if not (List.exists (fun e -> t.failed.(e)) links) then t
  else begin
    let keep = Array.copy t.failed in
    List.iter (fun e -> keep.(e) <- false) links;
    let remaining =
      List.filter (fun e -> keep.(e)) (List.init (Array.length keep) Fun.id)
    in
    let by_key a b =
      Int.compare (canonical_key t.graph a) (canonical_key t.graph b)
    in
    fail
      {
        t with
        failed = Array.make (Array.length keep) false;
        base = t.pristine_base;
        protection = t.pristine_protection;
      }
      (List.sort by_key remaining)
  end

let first_diff what want r =
  let got = Routing.to_dense_matrix r in
  if Array.length got <> Array.length want then
    Some (Printf.sprintf "%s: %d rows, reference has %d" what (Array.length got)
            (Array.length want))
  else begin
    let diff = ref None in
    Array.iteri
      (fun k row ->
        Array.iteri
          (fun e x ->
            if !diff = None
               && Int64.bits_of_float x <> Int64.bits_of_float want.(k).(e)
            then
              diff :=
                Some
                  (Printf.sprintf "%s row %d link %d: %h, reference %h" what
                     k e x want.(k).(e)))
          row)
      got;
    !diff
  end

let mismatch t (st : Reconfig.state) =
  if st.failed <> t.failed then Some "failed link sets differ"
  else
    match first_diff "base" t.base st.base with
    | Some _ as d -> d
    | None -> first_diff "protection" t.protection st.protection
