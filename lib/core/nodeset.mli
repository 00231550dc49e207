(** Sets of node identifiers, represented as bit vectors.

    Directory sharing vectors are bit-per-node in the modeled machine; this
    module gives them a typed interface.  Supports up to 62 nodes. *)

type t

val max_nodes : int
(** Node ids range over [0 .. max_nodes - 1] (62 nodes). *)

val empty : t

val singleton : int -> t

val add : t -> int -> t

val remove : t -> int -> t

val mem : t -> int -> bool

val union : t -> t -> t

val diff : t -> t -> t

val cardinal : t -> int

val is_empty : t -> bool

val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val filter : (int -> bool) -> t -> t

val to_list : t -> int list
(** Ascending node order. *)

val of_list : int list -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
