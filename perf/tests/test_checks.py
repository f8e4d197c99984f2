import checks


def _logs(n=50):
    return {node: list(range(n)) for node in range(3)}


def test_identical_logs_pass():
    result = checks.check_node_logs(_logs(), range(10, 50))
    assert result.correct and result.attempted == 40 and result.failed == 0


def test_a_lagging_node_fails_ids_but_not_order():
    logs = _logs()
    del logs[2][45:]
    result = checks.check_node_logs(logs, range(10, 50))
    assert result.order_ok
    assert result.failed == 5 and result.fail_share == 5 / 40


def test_swapped_ids_are_an_order_disagreement():
    logs = _logs()
    logs[1][20], logs[1][21] = logs[1][21], logs[1][20]
    result = checks.check_node_logs(logs, range(10, 50))
    assert not result.order_ok and "position 20" in result.detail


def test_duplicate_delivery_fails_the_id():
    logs = _logs()
    for log in logs.values():
        log.append(30)
    result = checks.check_node_logs(logs, range(10, 50))
    assert result.order_ok and result.failed == 1


def test_corrupt_log_is_caught_by_both_checkers():
    logs = _logs()
    checks.corrupt_log(logs[1])
    result = checks.check_node_logs(logs, range(0, 50))
    assert not result.order_ok and result.failed >= 1

    receipts = {"a": [(s, s * 10) for s in range(1, 30)],
                "b": [(s, s * 10) for s in range(1, 30, 2)]}
    expected = {"a": {s * 10 for s in range(1, 30)},
                "b": {s * 10 for s in range(1, 30, 2)}}
    assert checks.check_witnessed_logs(receipts, expected).correct
    checks.corrupt_log(receipts["b"])
    result = checks.check_witnessed_logs(receipts, expected)
    assert not result.order_ok and result.failed == 1


def test_witness_must_be_unique_per_id():
    receipts = {"a": [(1, 10), (2, 20)], "b": [(1, 10), (3, 20)]}
    expected = {"a": {10, 20}, "b": {10, 20}}
    result = checks.check_witnessed_logs(receipts, expected)
    assert not result.order_ok and result.failed == 0


def test_unexpected_receipt_counts_as_failed():
    result = checks.check_witnessed_logs({"a": [(1, 10), (2, 20)]}, {"a": {10}})
    assert result.order_ok and result.failed == 1 and result.attempted == 1


def test_combine_adds_counts_and_ands_order():
    ok = checks.CheckResult(10, 0, True)
    bad = checks.CheckResult(5, 2, False, "x")
    both = checks.combine([ok, bad])
    assert (both.attempted, both.failed, both.order_ok) == (15, 2, False)
    assert not both.correct and both.detail == "x"
