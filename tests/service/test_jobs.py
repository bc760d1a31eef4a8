"""Background simulation jobs: 202 + poll lifecycle, idempotence, drain."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.runner import ArrivalSpec, ExperimentGrid, GridRunner
from repro.service import ServiceServer
from repro.service.errors import Draining
from repro.service.jobs import JobTable, generating_shard, request_fingerprint
from repro.service.server import HttpRequest
from tests.service.conftest import ServiceClient, make_app

SET1 = ["Windows2003", "Solaris", "Debian", "OpenBSD"]

REQUEST = {
    "configurations": {"Set1": SET1},
    "runs": 8,
    "horizon": 2.0,
    "seed": 11,
}


def _poll(client, job_id: str, timeout: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        payload = client.get(f"/v1/jobs/{job_id}").json()
        if payload["state"] in ("done", "failed"):
            return payload
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestJobLifecycle:
    def test_submit_returns_202_with_location(self, server):
        client, _app = server
        result = client.post_json("/v1/simulations", REQUEST)
        assert result.status == 202
        payload = result.json()
        assert payload["state"] in ("queued", "running", "done")
        assert result.headers.get("Location") == f"/v1/jobs/{payload['job_id']}"
        assert payload["cells"] == 1
        assert payload["runs_per_cell"] == 8

    def test_job_result_matches_direct_grid_runner(self, server, dataset):
        client, _app = server
        submitted = client.post_json("/v1/simulations", REQUEST).json()
        finished = _poll(client, submitted["job_id"])
        assert finished["state"] == "done"

        grid = ExperimentGrid(
            configurations={"Set1": SET1},
            arrivals=(ArrivalSpec(),),
            runs=8,
            horizon=2.0,
        )
        expected = GridRunner.for_dataset(dataset, seed=11).run(grid)
        assert finished["result"] == expected.to_json_payload()

    def test_packed_server_runs_jobs_like_the_default_engine(self, corpus):
        """``packed`` selects the query index; it never reaches the simulator."""
        results = []
        for config in ({"engine": "packed"}, {}):
            service = ServiceServer(make_app(corpus, **config))
            client = ServiceClient(service.start())
            try:
                submitted = client.post_json("/v1/simulations", REQUEST).json()
                finished = _poll(client, submitted["job_id"])
            finally:
                service.stop(drain_grace=30.0)
            assert finished["state"] == "done"
            results.append(finished["result"])
        assert results[0] == results[1]

    def test_jobs_listing_excludes_results(self, server):
        client, _app = server
        submitted = client.post_json("/v1/simulations", REQUEST).json()
        _poll(client, submitted["job_id"])
        listing = client.get("/v1/jobs").json()["jobs"]
        assert [job["job_id"] for job in listing] == [submitted["job_id"]]
        assert "result" not in listing[0]

    def test_timestamps_progress_through_lifecycle(self, server):
        client, _app = server
        submitted = client.post_json("/v1/simulations", REQUEST).json()
        finished = _poll(client, submitted["job_id"])
        assert finished["submitted_at"] <= finished["started_at"]
        assert finished["started_at"] <= finished["finished_at"]


class TestIdempotentSubmission:
    def test_resubmitting_same_id_and_body_returns_same_job(self, server):
        client, _app = server
        body = {**REQUEST, "id": "nightly"}
        first = client.post_json("/v1/simulations", body)
        second = client.post_json("/v1/simulations", body)
        assert first.status == second.status == 202
        assert first.json()["job_id"] == second.json()["job_id"] == "nightly"
        assert len(client.get("/v1/jobs").json()["jobs"]) == 1

    def test_same_id_different_body_conflicts_409(self, server):
        client, _app = server
        client.post_json("/v1/simulations", {**REQUEST, "id": "nightly"})
        conflicting = client.post_json(
            "/v1/simulations", {**REQUEST, "id": "nightly", "runs": 16}
        )
        assert conflicting.status == 409
        error = conflicting.json()["error"]
        assert error["code"] == "conflict"
        assert error["detail"] == {"job_id": "nightly"}

    def test_fingerprint_ignores_the_id_field(self):
        assert request_fingerprint({**REQUEST, "id": "a"}) == request_fingerprint(
            {**REQUEST, "id": "b"}
        )
        assert request_fingerprint(REQUEST) != request_fingerprint(
            {**REQUEST, "runs": 16}
        )


class TestJobIds:
    """Generated ids name their worker; polls find the owner."""

    def test_generated_ids_name_their_worker(self, dataset):
        grid = ExperimentGrid(configurations={"Set1": SET1}, runs=2, horizon=1.0)
        table = JobTable(lambda job: {"ok": True}, shard=3)
        job = table.submit(grid, 7, "digest", fingerprint="f", dataset=dataset)
        assert job.job_id == "job-3-1"
        assert generating_shard(job.job_id) == 3
        assert generating_shard("nightly") is None
        assert generating_shard("job-1") is None
        assert table.drain(grace=60.0) is True

    def test_poll_for_a_job_on_a_gone_worker_is_404(self, corpus):
        # Two peer URLs nobody listens on: shard 1 owns job-1-1 but is gone.
        ports = []
        for _ in range(2):
            with socket.socket() as sock:
                sock.bind(("127.0.0.1", 0))
                ports.append(sock.getsockname()[1])
        app = make_app(
            corpus, peers=tuple(f"http://127.0.0.1:{port}" for port in ports)
        )
        try:
            for job_id in ("job-1-1", "job-0-1", "job-7-1"):
                response = app.dispatch(
                    HttpRequest(
                        method="GET", path=f"/v1/jobs/{job_id}", query={},
                        headers={},
                    )
                )
                assert response.status == 404
                error = json.loads(response.body)["error"]
                assert error["detail"] == {"job_id": job_id}
        finally:
            app.shutdown()


class TestValidation:
    def test_unknown_os_is_rejected(self, server):
        client, _app = server
        result = client.post_json(
            "/v1/simulations",
            {"configurations": {"bad": ["Debian", "TempleOS"]}},
        )
        assert result.status == 400
        assert result.json()["error"]["detail"]["os"] == "TempleOS"

    def test_unknown_field_is_rejected(self, server):
        client, _app = server
        result = client.post_json("/v1/simulations", {**REQUEST, "bogus": 1})
        assert result.status == 400
        assert result.json()["error"]["detail"]["fields"] == ["bogus"]

    def test_oversized_grid_is_rejected(self, server):
        client, _app = server
        result = client.post_json(
            "/v1/simulations", {**REQUEST, "runs": 2_000_000}
        )
        assert result.status == 400
        assert "caps jobs" in result.json()["error"]["message"]

    def test_non_object_body_is_rejected(self, server):
        client, _app = server
        result = client.request(
            "POST",
            "/v1/simulations",
            headers={"Content-Type": "application/json"},
            body=b"[1, 2, 3]",
        )
        assert result.status == 400


class TestDrain:
    def test_drained_table_refuses_new_jobs(self, app, dataset):
        grid = ExperimentGrid(configurations={"Set1": SET1}, runs=2, horizon=1.0)
        job = app.jobs.submit(
            grid, 7, "digest", fingerprint="f", dataset=dataset
        )
        assert app.jobs.drain(grace=60.0) is True
        assert app.jobs.get(job.job_id).state == "done"
        with pytest.raises(Draining):
            app.jobs.submit(grid, 7, "digest", fingerprint="f", dataset=dataset)

    def test_drain_is_idempotent_and_counts_states(self, app):
        assert app.jobs.drain(grace=1.0) is True
        assert app.jobs.drain(grace=1.0) is True
        assert app.jobs.counts() == {
            "queued": 0, "running": 0, "done": 0, "failed": 0,
        }

    def test_invalid_client_ids_are_rejected(self, app, dataset):
        from repro.service.errors import BadRequest

        grid = ExperimentGrid(configurations={"Set1": SET1}, runs=2, horizon=1.0)
        for bad in ("a/b", "", "  ", "x" * 65, "evil\r\nX-Injected: 1"):
            with pytest.raises(BadRequest):
                app.jobs.submit(
                    grid, 7, "digest", fingerprint="f", job_id=bad, dataset=dataset
                )

    def test_crlf_in_client_id_is_rejected_over_http(self, server):
        client, _app = server
        result = client.post_json(
            "/v1/simulations", {**REQUEST, "id": "x\r\nX-Evil: 1"}
        )
        assert result.status == 400
        assert "X-Evil" not in result.headers

    def test_generated_ids_skip_client_claimed_names(self, server):
        client, _app = server
        claimed = client.post_json("/v1/simulations", {**REQUEST, "id": "job-0-1"})
        assert claimed.status == 202
        generated = client.post_json("/v1/simulations", {**REQUEST, "runs": 4})
        assert generated.status == 202
        assert generated.json()["job_id"] == "job-0-2"
        listing = client.get("/v1/jobs").json()["jobs"]
        ids = [job["job_id"] for job in listing]
        assert len(ids) == len(set(ids)) == 2

    def test_finished_jobs_are_evicted_beyond_the_bound(self, dataset):
        grid = ExperimentGrid(configurations={"Set1": SET1}, runs=2, horizon=1.0)
        # One executor thread finishes jobs in submission order; with two, a
        # slow first job can outlive newer ones and rightly survive them.
        table = JobTable(lambda job: {"ok": True}, executor_threads=1, max_jobs=2)
        jobs = [
            table.submit(grid, 7, "digest", fingerprint=str(index), dataset=dataset)
            for index in range(4)
        ]
        assert table.drain(grace=60.0) is True
        survivors = [job.job_id for job in table.list()]
        assert len(survivors) <= 2
        assert jobs[-1].job_id in survivors  # newest submissions survive
        with pytest.raises(Exception):
            table.get(jobs[0].job_id)  # oldest finished job was evicted

    def test_terminal_jobs_release_their_dataset(self, app, dataset):
        grid = ExperimentGrid(configurations={"Set1": SET1}, runs=2, horizon=1.0)
        job = app.jobs.submit(grid, 7, "digest", fingerprint="f", dataset=dataset)
        assert app.jobs.drain(grace=60.0) is True
        assert job.state == "done"
        assert job.dataset is None

    def test_failed_job_reports_error(self, app):
        grid = ExperimentGrid(configurations={"Set1": SET1}, runs=2, horizon=1.0)
        # dataset=None makes the runner factory blow up inside the worker.
        job = app.jobs.submit(grid, 7, "digest", fingerprint="f", dataset=None)
        assert app.jobs.drain(grace=60.0) is True
        finished = app.jobs.get(job.job_id)
        assert finished.state == "failed"
        assert finished.error
        assert "error" in finished.payload()
