(** One metadata server's object state.

    A mutable map of inodes plus, for each directory inode, its dentry
    table. {!apply} validates and performs one {!Update.t} and returns
    the {e inverse} update (the exact mutation that undoes it), which the
    protocols keep as an in-memory undo list for aborts.

    This is the raw state; {!Store} pairs a durable and a volatile
    instance to model the cache/stable-storage split. *)

type t

type inode_info = { kind : Update.kind; nlink : int }

type error =
  | Inode_exists of Update.ino
  | No_such_inode of Update.ino
  | Name_exists of Update.ino * string
  | No_such_name of Update.ino * string
  | Not_a_directory of Update.ino
  | Directory_not_empty of Update.ino

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val create : unit -> t
(** Empty state — not even a root directory; see {!add_root}. *)

val add_root : t -> Update.ino -> unit
(** Install a root directory inode with [nlink = 1] (the implicit
    super-root reference), bypassing validation. *)

val apply : t -> Update.t -> (Update.t, error) result
(** Validate and apply; on success return the inverse update. The state
    is unchanged on error. *)

val apply_exn : t -> Update.t -> Update.t
(** @raise Invalid_argument on a validation error — for replaying update
    sequences that are known to be valid (durable commits, undo). *)

val inode : t -> Update.ino -> inode_info option
val lookup : t -> dir:Update.ino -> name:string -> Update.ino option
val list_dir : t -> Update.ino -> (string * Update.ino) list option
(** Entries sorted by name; [None] if not a directory. *)

val inodes : t -> (Update.ino * inode_info) list
(** All inodes, sorted by number. *)

(** {2 Per-key comparison and restore}

    A {e key} is an inode number, together with whether that inode has a
    dentry table, or one [(dir, name)] dentry. {!Store} uses these to
    reset a cache key by key instead of copying the whole state. *)

val inode_agrees : t -> t -> Update.ino -> bool
(** Same inode record, or both absent. A directory inode has a dentry
    table exactly while it exists, so this implies the same table
    presence. *)

val dentry_agrees : t -> t -> dir:Update.ino -> name:string -> bool
(** Same target (or absence) for the dentry [name] in [dir]. *)

val restore_inode : t -> from:t -> Update.ino -> unit
(** Make the inode key of [t] equal [from]'s: copy or remove the inode,
    and create an empty dentry table or remove it to match. *)

val restore_dentry : t -> from:t -> dir:Update.ino -> name:string -> unit
(** Make one dentry of [t] equal [from]'s. Does nothing if [t] has no
    dentry table for [dir], so restore [dir]'s inode key first. *)

val equal : t -> t -> bool
(** Structural equality of the full state — used by tests to compare
    durable images. *)
