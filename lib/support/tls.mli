(** Domain-local slots for the VM's ambient context.

    Every piece of cross-run mutable context in the tree — the print hook,
    [Math.random]'s generator, pipeline check mode, telemetry default
    sinks and trace context, fault plans and the fired-fault hook, the
    profile recorder, the engine's MIR and diagnostic hooks, the pool
    participant id — lives in one of these slots instead of a global
    [ref], so engine runs fanned out over a {!Parallel.Pool} cannot
    observe (or clobber) each other's state. The executors own no slot:
    the engine reads the recorder once per run and hands the interpreter
    and the native executor their observers in the records it passes
    them. Each
    domain lazily gets its own value from the initializer; nothing is
    inherited from the spawning domain, which is what makes pool tasks
    self-contained: a task that needs a hook installs it itself, usually
    through the owning module's [with_...] combinator. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** A new slot; [init] produces the per-domain initial value on first use. *)

val get : 'a t -> 'a
(** This domain's current value. *)

val set : 'a t -> 'a -> unit
(** Replace this domain's value; other domains are unaffected. *)

val with_value : 'a t -> 'a -> (unit -> 'b) -> 'b
(** Run with this domain's value temporarily replaced, restoring on exit
    (also on exception). *)
