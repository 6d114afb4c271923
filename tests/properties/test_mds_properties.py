"""Property tests: capability locker and namespace invariants."""

from hypothesis import given, settings, strategies as st

from repro.errors import MalacologyError
from repro.mds.capability import Capability, LeasePolicy, Locker
from repro.mds.inode import DIR, FILE, Inode
from repro.mds.namespace import NamespaceCache, parent_of
from repro.sim.event import Future

# ----------------------------------------------------------------------
# Locker: at most one holder, FIFO waiters, releases only by holder.
# ----------------------------------------------------------------------
locker_ops = st.lists(
    st.tuples(
        st.sampled_from(["grant", "release", "drop_ino", "next"]),
        st.integers(0, 3),                  # ino
        st.sampled_from(["a", "b", "c", "d"]),  # client
    ),
    min_size=1, max_size=80,
)


@given(locker_ops)
@settings(max_examples=300, deadline=None)
def test_locker_exclusivity_invariant(sequence):
    lk = Locker()
    policy = LeasePolicy()
    holder = {}   # ino -> (client, seq) model
    queue = {}    # ino -> fifo of (waiting client, grant future)

    for op, ino, client in sequence:
        if op == "grant":
            cap = lk.try_grant(ino, client, 0.0, policy)
            if ino not in holder:
                assert isinstance(cap, Capability) and cap.client == client
                holder[ino] = (client, cap.seq)
            elif holder[ino][0] == client:
                assert isinstance(cap, Capability) and cap.client == client
            else:
                assert isinstance(cap, Future)
                q = queue.setdefault(ino, [])
                queued = dict(q)
                if client in queued:
                    assert cap is queued[client]
                else:
                    q.append((client, cap))
        elif op == "release":
            seq = holder.get(ino, (None, -1))[1]
            removed = lk.release(ino, client, seq)
            if holder.get(ino, (None,))[0] == client:
                assert removed
                del holder[ino]
            else:
                assert not removed
        elif op == "drop_ino":
            futs = lk.drop_ino(ino)
            assert futs == [fut for _, fut in queue.pop(ino, [])]
            holder.pop(ino, None)
        else:  # next waiter promotion
            if ino in holder:
                continue
            nxt = lk.next_waiter(ino)
            q = queue.get(ino, [])
            if q:
                assert nxt == q.pop(0)
                if not q:
                    del queue[ino]
                cap = lk.try_grant(ino, nxt[0], 0.0, policy)
                assert isinstance(cap, Capability)
                holder[ino] = (nxt[0], cap.seq)
            else:
                assert nxt is None

        # Core invariant: the locker's holder view matches the model.
        for i in range(4):
            cap = lk.holder_of(i)
            if i in holder:
                assert cap is not None and cap.client == holder[i][0]
            else:
                assert cap is None
        assert lk.queued() == [fut for q in queue.values() for _, fut in q]


# ----------------------------------------------------------------------
# Namespace: reachability and parent/child consistency.
# ----------------------------------------------------------------------
path_segments = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                         max_size=3)
ns_ops = st.lists(
    st.tuples(st.sampled_from(["mkdir", "create", "unlink"]),
              path_segments),
    min_size=1, max_size=50,
)


@given(ns_ops)
@settings(max_examples=300, deadline=None)
def test_namespace_matches_model(sequence):
    ns = NamespaceCache()
    ns.add("/", Inode(1, DIR))
    model = {"/": DIR}
    ino = 10

    for op, segments in sequence:
        path = "/" + "/".join(segments)
        ino += 1
        try:
            if op == "mkdir":
                ns.add(path, Inode(ino, DIR))
            elif op == "create":
                ns.add(path, Inode(ino, FILE))
            else:
                ns.remove(path)
        except MalacologyError:
            continue
        if op == "unlink":
            del model[path]
        else:
            # Creation only succeeds when the parent is a dir and the
            # path is free.
            parent = parent_of(path)
            assert model.get(parent) == DIR
            assert path not in model
            model[path] = DIR if op == "mkdir" else FILE

    assert set(ns.all_paths()) == set(model)
    for path in model:
        if path != "/":
            assert parent_of(path) in model  # no orphans
    for path, kind in model.items():
        if kind == DIR:
            children = ns.listdir(path)
            expected = sorted(
                p.rsplit("/", 1)[1] for p in model
                if p != "/" and parent_of(p) == path)
            assert children == expected


@given(ns_ops)
@settings(max_examples=150, deadline=None)
def test_subtree_extract_install_preserves_everything(sequence):
    ns = NamespaceCache()
    ns.add("/", Inode(1, DIR))
    ino = 10
    for op, segments in sequence:
        path = "/" + "/".join(segments)
        ino += 1
        try:
            if op == "mkdir":
                ns.add(path, Inode(ino, DIR))
            elif op == "create":
                ns.add(path, Inode(ino, FILE))
            else:
                ns.remove(path)
        except MalacologyError:
            continue

    before = {p: ns.get(p).to_dict() for p in ns.all_paths()}
    if not ns.has("/a"):
        return
    payload = ns.extract_subtree("/a")
    other = NamespaceCache()
    other.add("/", Inode(1, DIR))
    other.install_subtree(payload)
    merged = {p: other.get(p).to_dict() for p in other.all_paths()
              if p != "/"}
    merged.update({p: ns.get(p).to_dict() for p in ns.all_paths()})
    assert merged == before
