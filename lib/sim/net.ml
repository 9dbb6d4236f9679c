(* Every model can name the values a run must fit in its quantum
   ({!fold}) and be rescaled ({!scale}).  A [Grid] is the arithmetic
   progression [lo + k * step], [k < count]: a draw picks [k] from
   [state] per message.  When [lo] and [step] are integers (a run's
   quanta) a draw computes its point, which allocates nothing; a grid
   of true fractions builds its [points] on its first draw and reads
   them after, so no draw allocates a rational either. *)
type grid = {
  state : Random.State.t;
  lo : Rat.t;
  step : Rat.t;
  count : int;
  mutable points : Rat.t array;
}

type t = Constant of Rat.t | Matrix of Rat.t array array | Grid of grid

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
  Grid
    {
      state = Random.State.make [| seed |];
      lo;
      step = Rat.div_int (Rat.sub hi lo) granularity;
      count = granularity + 1;
      points = [||];
    }

let random_model ~seed (m : Model.t) =
  random ~seed ~lo:(Model.min_delay m) ~hi:m.d ~granularity:16

let max_delay_model (m : Model.t) = Constant m.d
let min_delay_model (m : Model.t) = Constant (Model.min_delay m)

let point g k = Rat.add g.lo (Rat.mul_int g.step k)

let delay t ~src ~dst ~time:_ ~seq:_ =
  match t with
  | Constant d -> d
  | Matrix m ->
      if src < 0 || src >= Array.length m || dst < 0 || dst >= Array.length m
      then invalid_arg "Net.delay: index out of range"
      else m.(src).(dst)
  | Grid g ->
      let k = Random.State.int g.state g.count in
      if Rat.den g.lo = 1 && Rat.den g.step = 1 then point g k
      else begin
        if Array.length g.points = 0 then
          g.points <- Array.init g.count (point g);
        g.points.(k)
      end

(* Every point of a grid is an integer combination of its first two,
   so those two give the lcm of all the points' denominators, and the
   largest magnitude lies at an end. *)
let fold f t acc =
  match t with
  | Constant d -> f d acc
  | Matrix m -> Array.fold_left (Array.fold_left (fun acc v -> f v acc)) acc m
  | Grid g -> f (point g (g.count - 1)) (f (point g 1) (f g.lo acc))

let scale k t =
  let s v = Rat.mul_int v k in
  match t with
  | Constant d -> Constant (s d)
  | Matrix m -> Matrix (Array.map (Array.map s) m)
  | Grid g -> Grid { g with lo = s g.lo; step = s g.step; points = [||] }

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
