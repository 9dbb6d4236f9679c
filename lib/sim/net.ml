(* Every model carries its values, so a run can read all of them
   ({!fold}) and rescale them ({!map}).  [Grid] draws an index into
   [values] from [state] per message. *)
type t =
  | Constant of Rat.t
  | Matrix of Rat.t array array
  | Grid of { state : Random.State.t; values : Rat.t array }

let constant d = Constant d

let matrix m =
  let n = Array.length m in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Net.matrix: not square")
    m;
  Matrix m

let random ~seed ~lo ~hi ~granularity =
  if granularity <= 0 then invalid_arg "Net.random: granularity must be > 0";
  if Rat.gt lo hi then invalid_arg "Net.random: lo > hi";
  let step = Rat.div_int (Rat.sub hi lo) granularity in
  (* The grid is built once, so a draw is an index and builds no
     rational. *)
  Grid
    {
      state = Random.State.make [| seed |];
      values =
        Array.init (granularity + 1) (fun k -> Rat.add lo (Rat.mul_int step k));
    }

let random_model ~seed (m : Model.t) =
  random ~seed ~lo:(Model.min_delay m) ~hi:m.d ~granularity:16

let max_delay_model (m : Model.t) = Constant m.d
let min_delay_model (m : Model.t) = Constant (Model.min_delay m)

let delay t ~src ~dst ~time:_ ~seq:_ =
  match t with
  | Constant d -> d
  | Matrix m ->
      if src < 0 || src >= Array.length m || dst < 0 || dst >= Array.length m
      then invalid_arg "Net.delay: index out of range"
      else m.(src).(dst)
  | Grid { state; values } ->
      values.(Random.State.int state (Array.length values))

let fold f t acc =
  match t with
  | Constant d -> f d acc
  | Matrix m -> Array.fold_left (Array.fold_left (fun acc v -> f v acc)) acc m
  | Grid { values; _ } -> Array.fold_left (fun acc v -> f v acc) acc values

let map f = function
  | Constant d -> Constant (f d)
  | Matrix m -> Matrix (Array.map (Array.map f) m)
  | Grid { state; values } -> Grid { state; values = Array.map f values }

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
