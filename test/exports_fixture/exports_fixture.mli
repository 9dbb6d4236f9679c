val used : int -> int
val unused : int
val scaled : ?by:int -> int -> int
val offset : ?by:int -> int -> int
