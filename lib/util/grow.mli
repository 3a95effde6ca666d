(** Capacity doubling for the flat arrays that edits extend in place (the
    engine's instance table, the attribute store). Each call copies only
    when the capacity runs out, and then doubles it, so a stream of
    appends copies every element O(1) times amortized. Slack past the used
    prefix is filled with the default value (zero bytes for bitsets); the
    caller tracks how much is used. *)

(** [array a used need def] — [a] itself when it holds [used + need]
    elements, else a copy of its first [used] elements in an array of at
    least twice the length, padded with [def]. *)
val array : 'a array -> int -> int -> 'a -> 'a array

(** [bits b n] — [b] itself when it holds [n] bits, else a copy in a
    zero-padded buffer of at least twice the length. *)
val bits : Bytes.t -> int -> Bytes.t
