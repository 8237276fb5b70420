import numpy as np
import pytest

from graphtext import tensor as T
from oracles import ReferenceAdam, finite_difference, reference_softmax, relative_error

TOL = 1e-4


def leaf(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True)


def fd_check(build_loss, tensors):
    """Compare tape gradients of build_loss() against central differences."""
    loss = build_loss()
    T.backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    numeric = finite_difference(lambda: build_loss().item(),
                                [t.data for t in tensors])
    for a, n in zip(analytic, numeric):
        assert relative_error(a, n) <= TOL
    for t in tensors:
        t.zero_grad()


def test_add_broadcast_grads():
    rng = np.random.default_rng(0)
    a = leaf(rng, 3, 4)
    b = leaf(rng, 4)
    fd_check(lambda: T.tsum(T.mul(T.add(a, b), T.add(a, b))), [a, b])


def test_mul_broadcast_grads():
    rng = np.random.default_rng(1)
    a = leaf(rng, 2, 5)
    b = leaf(rng, 1, 5)
    fd_check(lambda: T.tsum(T.mul(a, b)), [a, b])


def test_shape_mismatch_raises():
    a = T.Tensor(np.zeros((2, 3)))
    b = T.Tensor(np.zeros((4, 5)))
    with pytest.raises(T.ShapeError):
        T.add(a, b)
    with pytest.raises(T.ShapeError):
        T.matmul(a, b)
    with pytest.raises(T.ShapeError):  # batch dims 2 and 3 do not broadcast
        T.matmul(T.Tensor(np.zeros((2, 4, 3))), T.Tensor(np.zeros((3, 3, 5))))
    with pytest.raises(T.ShapeError):
        T.split_heads(T.Tensor(np.zeros((2, 6))), 4)


@pytest.mark.parametrize("ta,tb", [(False, False), (True, False),
                                   (False, True), (True, True)])
def test_matmul_transpose_grads(ta, tb):
    rng = np.random.default_rng(2)
    a = leaf(rng, *( (4, 3) if ta else (3, 4) ))
    b = leaf(rng, *( (5, 4) if tb else (4, 5) ))
    w = T.Tensor(rng.standard_normal((3, 5)))
    fd_check(lambda: T.tsum(T.mul(T.matmul(a, b, ta, tb), w)), [a, b])


def test_relu_and_leaky_grads():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.standard_normal((4, 4)) + 0.3, requires_grad=True)
    # keep values away from the kink so finite differences are valid
    x.data[np.abs(x.data) < 0.05] += 0.2
    fd_check(lambda: T.tsum(T.relu(x)), [x])
    fd_check(lambda: T.tsum(T.leaky_relu(x, 0.2)), [x])
    y = T.leaky_relu(T.Tensor([[-1.0, 2.0]]), 0.2)
    assert np.allclose(y.data, [[-0.2, 2.0]])


def test_embedding_lookup_duplicate_ids_accumulate():
    rng = np.random.default_rng(5)
    table = leaf(rng, 6, 3)
    ids = [1, 4, 1, 1]
    out = T.embedding_lookup(table, ids)
    assert np.array_equal(out.data, table.data[ids])
    loss = T.tsum(out)
    T.backward(loss)
    expected = np.zeros((6, 3))
    for i in ids:
        expected[i] += 1.0
    assert np.array_equal(table.grad, expected)
    table.zero_grad()
    w = T.Tensor(rng.standard_normal((4, 3)))
    fd_check(lambda: T.tsum(T.mul(T.embedding_lookup(table, ids), w)), [table])
    with pytest.raises(T.ShapeError):
        T.embedding_lookup(table, [6])


def test_softmax_matches_reference_and_grads():
    rng = np.random.default_rng(6)
    x = leaf(rng, 3, 5)
    y = T.softmax_last_dim(x)
    assert np.allclose(y.data, reference_softmax(x.data), atol=1e-12)
    assert np.allclose(y.data.sum(axis=-1), 1.0)
    w = T.Tensor(rng.standard_normal((3, 5)))
    fd_check(lambda: T.tsum(T.mul(T.softmax_last_dim(x), w)), [x])


def test_softmax_mask_zeroes_positions():
    rng = np.random.default_rng(7)
    x = leaf(rng, 2, 4)
    mask = np.array([[True, False, True, True], [False, True, True, False]])
    y = T.softmax_last_dim(x, mask=mask)
    assert np.all(y.data[~mask] == 0.0)
    assert np.allclose(y.data.sum(axis=-1), 1.0)
    w = T.Tensor(rng.standard_normal((2, 4)))
    fd_check(lambda: T.tsum(T.mul(T.softmax_last_dim(x, mask=mask), w)), [x])
    with pytest.raises(T.ShapeError):
        T.softmax_last_dim(x, mask=np.zeros((2, 4), dtype=bool))
    with pytest.raises(T.ShapeError):
        T.softmax_last_dim(x, mask=np.ones((3, 4), dtype=bool))


def test_layer_norm_grads_and_moments():
    rng = np.random.default_rng(8)
    x = leaf(rng, 4, 6)
    gain = T.Tensor(rng.standard_normal(6) + 1.0, requires_grad=True)
    bias = leaf(rng, 6)
    y = T.layer_norm(x, gain, bias)
    ones = T.Tensor(np.ones(6))
    normed = T.layer_norm(x, ones, T.Tensor(np.zeros(6)))
    assert np.allclose(normed.data.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(normed.data.var(axis=-1), 1.0, atol=1e-4)
    w = T.Tensor(rng.standard_normal((4, 6)))
    fd_check(lambda: T.tsum(T.mul(T.layer_norm(x, gain, bias), w)), [x, gain, bias])
    assert y.shape == (4, 6)


def test_cross_entropy_value_ignore_and_grads():
    rng = np.random.default_rng(10)
    logits = leaf(rng, 5, 7)
    ids = [3, 0, 6, 2, 1]
    # independent value: -log softmax picked per row
    probs = reference_softmax(logits.data)
    expect = -np.log(probs[np.arange(5), ids]).mean()
    got = T.cross_entropy(logits, ids)
    assert abs(got.item() - expect) < 1e-12

    # ignore_id drops every row whose target equals it (rows 1 and 3 here)
    ids_ig = [3, 0, 6, 0, 1]
    keep = [0, 2, 4]
    expect_ig = -np.log(probs[keep, [ids_ig[i] for i in keep]]).mean()
    got_ig = T.cross_entropy(logits, ids_ig, ignore_id=0)
    assert abs(got_ig.item() - expect_ig) < 1e-12

    got_sum = T.cross_entropy(logits, ids, reduction="sum")
    assert abs(got_sum.item() - expect * 5) < 1e-10

    fd_check(lambda: T.cross_entropy(logits, ids_ig, ignore_id=0), [logits])
    with pytest.raises(T.ShapeError):
        T.cross_entropy(logits, [0, 0, 0, 0, 0], ignore_id=0)


def test_composite_mlp_grads():
    rng = np.random.default_rng(11)
    x = T.Tensor(rng.standard_normal((3, 4)))
    w1 = leaf(rng, 4, 8)
    b1 = leaf(rng, 8)
    w2 = leaf(rng, 8, 5)
    gain = T.Tensor(np.ones(5), requires_grad=True)
    bias = leaf(rng, 5)

    def loss():
        h = T.relu(T.add(T.matmul(x, w1), b1))
        out = T.layer_norm(T.matmul(h, w2), gain, bias)
        return T.cross_entropy(out, [1, 3, 0])

    fd_check(loss, [w1, b1, w2, gain, bias])


def test_backward_accumulates_on_repeat():
    x = T.Tensor([2.0, 3.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    T.backward(loss)
    first = x.grad.copy()
    loss2 = T.tsum(T.mul(x, x))
    T.backward(loss2)
    assert np.allclose(x.grad, 2 * first)


def test_no_grad_records_nothing():
    x = T.Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad
    assert y._parents == ()


def test_scale_transpose_mean():
    rng = np.random.default_rng(12)
    a = leaf(rng, 3, 2)
    fd_check(lambda: T.tsum(T.scale(a, -2.5)), [a])


# ---------------------------------------------------------------------------
# parameter store


def make_store(rng):
    store = T.ParameterStore()
    store.create("enc.w", rng.standard_normal((4, 4)))
    store.create("enc.gnn.w", rng.standard_normal((4, 4)))
    store.create("head.b", rng.standard_normal(4))
    return store


def test_store_duplicate_and_counts():
    rng = np.random.default_rng(13)
    store = make_store(rng)
    with pytest.raises(ValueError):
        store.create("enc.w", np.zeros(1))
    assert store.names() == ["enc.w", "enc.gnn.w", "head.b"]
    assert store.num_values() == 16 + 16 + 4


def test_adam_matches_reference():
    rng = np.random.default_rng(14)
    store = make_store(rng)
    ref_params = [store.get(n).data.copy() for n in store.names()]
    ref = ReferenceAdam([p.shape for p in ref_params], lr=1e-2)
    for step in range(5):
        grads = [rng.standard_normal(p.shape) for p in ref_params]
        for n, g in zip(store.names(), grads):
            store.get(n).grad = g.copy()
        store.adam_step(lr=1e-2)
        store.zero_grads()
        ref.step(ref_params, grads)
    for n, p in zip(store.names(), ref_params):
        assert np.allclose(store.get(n).data, p, atol=1e-12)


def test_freeze_keeps_bits_and_skips_grad():
    rng = np.random.default_rng(15)
    store = make_store(rng)
    store.set_trainable(["enc.gnn.w"])
    frozen_before = {n: store.get(n).data.tobytes()
                     for n in ("enc.w", "head.b")}
    gnn_before = store.get("enc.gnn.w").data.tobytes()
    assert not store.get("enc.w").requires_grad
    assert store.get("enc.gnn.w").requires_grad
    for _ in range(10):
        for n in store.names():
            store.get(n).grad = np.ones_like(store.get(n).data)
        store.adam_step(lr=0.1)
        store.zero_grads()
    for n, blob in frozen_before.items():
        assert store.get(n).data.tobytes() == blob
    assert store.get("enc.gnn.w").data.tobytes() != gnn_before
    store.set_trainable(None)
    assert store.get("enc.w").requires_grad
    with pytest.raises(KeyError):
        store.set_trainable(["nope"])


def test_clip_norm_scales_update():
    store = T.ParameterStore()
    p = store.create("p", np.zeros(4))
    p.grad = np.full(4, 3.0)  # norm 6
    norm = store.adam_step(lr=1.0, clip_norm=1.5)
    assert abs(norm - 6.0) < 1e-12
    # after clipping all coordinates share one magnitude; direction -g
    assert np.all(p.data < 0)
    assert np.allclose(p.data, p.data[0])


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(16)
    store = T.ParameterStore()
    store.create("a.w", rng.standard_normal((3, 5)))
    store.create("b.v", rng.standard_normal(7).astype(np.float32))
    store.create("c.s", np.asarray(rng.standard_normal(())))
    path = str(tmp_path / "model.ckpt")
    before = {n: t.data.tobytes() for n, t in store.items()}
    store.save(path)

    loaded = T.read_checkpoint(path)
    assert list(loaded) == store.names()
    for n, arr in loaded.items():
        assert arr.tobytes() == before[n]
        assert arr.dtype == store.get(n).data.dtype

    store.get("a.w").data += 1.0
    store.load(path)
    for n, t in store.items():
        assert t.data.tobytes() == before[n]


def test_interrupted_checkpoint_save_keeps_previous_file(tmp_path, monkeypatch):
    rng = np.random.default_rng(18)
    store = make_store(rng)
    path = tmp_path / "model.ckpt"
    store.save(str(path))
    before = path.read_bytes()
    store.get("enc.w").data += 1.0
    real_pack, calls = T.struct.pack, []

    def pack_then_fail(fmt, *values):
        calls.append(fmt)
        if len(calls) > 4:  # part-way through the first parameter
            raise OSError("disk full")
        return real_pack(fmt, *values)

    monkeypatch.setattr(T.struct, "pack", pack_then_fail)
    with pytest.raises(OSError):
        store.save(str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        T.read_checkpoint(str(bad))

    rng = np.random.default_rng(17)
    store = T.ParameterStore()
    store.create("x", rng.standard_normal(3))
    good = tmp_path / "good.ckpt"
    store.save(str(good))
    good.write_bytes(good.read_bytes() + b"\x01")
    with pytest.raises(ValueError):
        T.read_checkpoint(str(good))

    other = T.ParameterStore()
    other.create("y", rng.standard_normal(3))
    store2 = tmp_path / "s2.ckpt"
    other.save(str(store2))
    with pytest.raises(ValueError):
        store.load(str(store2))
