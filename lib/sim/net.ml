type t = Constant of Rat.t | Matrix of Rat.t array array | Fn of fn
and fn = src:int -> dst:int -> time:Rat.t -> seq:int -> Rat.t

let constant d = Constant d

let matrix m =
  let n = Array.length m in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Net.matrix: not square")
    m;
  Matrix m

let fn f = Fn f

let random ~seed ~lo ~hi ~granularity =
  if granularity <= 0 then invalid_arg "Net.random: granularity must be > 0";
  if Rat.gt lo hi then invalid_arg "Net.random: lo > hi";
  let state = Random.State.make [| seed |] in
  let step = Rat.div_int (Rat.sub hi lo) granularity in
  (* The grid is built once, so a draw is an index and builds no
     rational. *)
  let grid =
    Array.init (granularity + 1) (fun k -> Rat.add lo (Rat.mul_int step k))
  in
  Fn (fun ~src:_ ~dst:_ ~time:_ ~seq:_ ->
      grid.(Random.State.int state (granularity + 1)))

let random_model ~seed (m : Model.t) =
  random ~seed ~lo:(Model.min_delay m) ~hi:m.d ~granularity:16

let max_delay_model (m : Model.t) = Constant m.d
let min_delay_model (m : Model.t) = Constant (Model.min_delay m)

let delay t ~src ~dst ~time ~seq =
  match t with
  | Constant d -> d
  | Matrix m ->
      if src < 0 || src >= Array.length m || dst < 0 || dst >= Array.length m
      then invalid_arg "Net.delay: index out of range"
      else m.(src).(dst)
  | Fn f -> f ~src ~dst ~time ~seq

let uniform_matrix ~n d = Array.make_matrix n n d

let matrix_valid (model : Model.t) m =
  let n = Array.length m in
  let ok = ref (n = model.n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && not (Model.delay_valid model m.(i).(j)) then ok := false
    done
  done;
  !ok

let pp_matrix ppf m =
  Array.iteri
    (fun i row ->
      if i > 0 then Format.fprintf ppf "@\n";
      Array.iteri
        (fun j v ->
          if j > 0 then Format.fprintf ppf "  ";
          if i = j then Format.fprintf ppf "%6s" "-"
          else Format.fprintf ppf "%6s" (Rat.to_string v))
        row)
    m
