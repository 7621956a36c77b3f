"""OpenMP tasks (task/taskwait)."""

import threading

import pytest

from repro.openmp import OpenMP, ParallelError, TaskGroup


class TestTaskGroup:
    def test_fib_tree(self):
        group = TaskGroup(OpenMP(4))

        def fib(n):
            if n < 2:
                return n
            a = group.submit(fib, n - 1)
            b = fib(n - 2)
            return a.result() + b

        assert group.run(fib, 15) == 610

    def test_deep_task_tree_does_not_overflow(self):
        """Targeted helping keeps the stack bounded by tree depth, not
        task count — fib(20) spawns ~10k tasks."""
        group = TaskGroup(OpenMP(4))

        def fib(n):
            if n < 2:
                return n
            a = group.submit(fib, n - 1)
            return a.result() + fib(n - 2)

        assert group.run(fib, 20) == 6765

    def test_flat_fan_out(self):
        group = TaskGroup(OpenMP(4))

        def root():
            handles = [group.submit(lambda i=i: i * i, ) for i in range(50)]
            return sum(h.result() for h in handles)

        assert group.run(root) == sum(i * i for i in range(50))

    def test_taskwait_drains_everything(self):
        group = TaskGroup(OpenMP(2))
        counter = []
        lock = threading.Lock()

        def root():
            for i in range(30):
                group.submit(lambda i=i: counter.append(i) or True)
            group.taskwait()
            return len(counter)

        assert group.run(root) == 30
        assert sorted(counter) == list(range(30))

    def test_single_thread_runtime(self):
        group = TaskGroup(OpenMP(1))

        def root():
            h = group.submit(lambda: 42)
            return h.result()

        assert group.run(root) == 42

    def test_task_exception_propagates_to_parent(self):
        group = TaskGroup(OpenMP(2))

        def root():
            h = group.submit(lambda: 1 / 0)
            return h.result()

        with pytest.raises(ParallelError) as excinfo:
            group.run(root)
        assert isinstance(excinfo.value.failures[0][1], ZeroDivisionError)

    def test_failed_root_still_shuts_down_workers(self):
        """Workers must exit even when root raises (regression: a dead
        master used to leave workers spinning until the join timeout)."""
        group = TaskGroup(OpenMP(4))

        def root():
            raise RuntimeError("root dies")

        with pytest.raises(ParallelError):
            group.run(root)

    def test_done_flag(self):
        group = TaskGroup(OpenMP(2))

        def root():
            h = group.submit(lambda: "x")
            value = h.result()
            return (value, h.done())

        assert group.run(root) == ("x", True)

    def test_results_from_workers_are_real_parallel_work(self):
        group = TaskGroup(OpenMP(4))
        thread_names = set()
        lock = threading.Lock()

        def task():
            with lock:
                thread_names.add(threading.current_thread().name)
            return 1

        def root():
            handles = [group.submit(task) for _ in range(200)]
            return sum(h.result() for h in handles)

        assert group.run(root) == 200
        # At least the master participated; usually workers too.
        assert thread_names
