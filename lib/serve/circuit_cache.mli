(** The compiled-circuit cache: a content-hash-keyed LRU over
    {!Halotis_engine.Compiled.t}.

    A [load] request hashes the circuit's source bytes
    ({!key_of_source}); a hit reuses the parsed, elaborated and
    CSR-flattened netlist together with its priced
    {!Halotis_delay.Delay_model.Cache} coefficients, skipping the whole
    setup pipeline.  Every open session holds its own reference to the
    compiled structure, so eviction only drops the cache's entry — live
    sessions keep simulating on the evicted structure safely.

    The cache is single-threaded, like the server that owns it. *)

type t

val create : capacity:int -> t
(** Capacity is clamped to at least 1. *)

val key_of_source : string -> string
(** Content hash (hex digest) of the circuit's source bytes.  The
    server runs one technology, but its cache key joins the parse
    recipe, this digest and the parameter-overlay fingerprint, so two
    corners of the same source never alias a compilation. *)

val find_or_compile :
  t -> key:string -> compile:(unit -> Halotis_engine.Compiled.t) -> Halotis_engine.Compiled.t * bool
(** Returns the compiled circuit and whether it was a cache hit.  On a
    miss, [compile] runs (parse + flatten + price), the least recently
    used entry is evicted if the cache is full, and the fresh entry is
    inserted.  [compile]'s exceptions propagate without corrupting the
    cache. *)

val entries : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
val capacity : t -> int

val to_json : t -> Halotis_util.Json.t
(** [{"entries", "capacity", "hits", "misses", "evictions"}] — the
    [cache-stats] reply (deterministic, golden-safe). *)
