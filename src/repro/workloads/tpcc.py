"""TPC-C workload (Sec. V-A).

The paper executes 'neworder' transactions (plus the usual payment
traffic) against a warehouse database.  Table regions are laid out as
fixed-size arrays over the page budget — which is how row stores place
fixed-schema rows — with the stock table dominating capacity, items a
small hot region, and order lines appended to a circular log region.

TPC-C is the most computationally intensive workload in the suite: its
compute segments are longer and its ROB runs fuller, so pipeline
flushes on a miss cost the most (the Sec. VI-A observation that TPCC
degrades most under AstriFlash).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.workloads.base import Job, Step, Workload
from repro.workloads.zipf import ZipfianGenerator

ROWS_PER_PAGE = 8  # 512-byte rows


class TpccWorkload(Workload):
    """New-order + payment transactions over array-laid tables."""

    name = "tpcc"
    rob_occupancy = 112.0  # compute-heavy: big window when flushed

    NEW_ORDER_WEIGHT = 0.5  # remaining traffic is payment

    def __init__(self, dataset_pages: int, seed: int = 42,
                 num_customers: Optional[int] = None, zipf_s: float = 1.50,
                 transactions_per_job: int = 1,
                 compute_ns: float = 400.0,
                 items_per_order: int = 10) -> None:
        super().__init__(dataset_pages, seed)
        if num_customers is None:
            num_customers = min(1 << 16, max(1024, dataset_pages * 2))
        self.num_customers = num_customers
        self.transactions_per_job = transactions_per_job
        self.compute_ns = compute_ns
        self.items_per_order = items_per_order

        # Region layout: stock dominates, items small and hot.
        self._item_budget = max(2, dataset_pages // 64)
        self._warehouse_budget = max(1, dataset_pages // 256)
        self._customer_budget = max(4, dataset_pages // 4)
        self._orderline_budget = max(4, dataset_pages // 64)
        used = (self._item_budget + self._warehouse_budget
                + self._customer_budget + self._orderline_budget)
        self._stock_budget = max(4, dataset_pages - used)

        self._item_base = 0
        self._warehouse_base = self._item_budget
        self._customer_base = self._warehouse_base + self._warehouse_budget
        self._stock_base = self._customer_base + self._customer_budget
        self._orderline_base = self._stock_base + self._stock_budget

        self.num_items = self._stock_budget * ROWS_PER_PAGE
        self._customer_zipf = ZipfianGenerator(
            num_customers, zipf_s, seed=seed + 1, permute=False
        )
        self._item_zipf = ZipfianGenerator(
            self.num_items, zipf_s, seed=seed + 2, permute=False
        )
        self._orderline_cursor = 0

    # -- table addressing ----------------------------------------------------

    def _customer_page(self, customer: int) -> int:
        slot = customer * self._customer_budget // self.num_customers
        return self._customer_base + min(slot, self._customer_budget - 1)

    # -- transactions ------------------------------------------------------------

    def _steps_for_job(self, job_id: int) -> Iterator[Step]:
        # New-order and payment bodies are inlined, with the table
        # addressing, so every step resumes one generator frame (as in
        # TATP).  Compute jitter is drawn inline (see Workload.__init__).
        # Draw order (customer sample, mix roll, per-step jitter, item
        # samples) and the order-line cursor's advance per step are
        # unchanged.
        compute_ns = self.compute_ns
        rng_random = self._rng_random
        sample_customer = self._customer_zipf.sample
        sample_item = self._item_zipf.sample
        new_order_weight = self.NEW_ORDER_WEIGHT
        items_per_order = self.items_per_order
        warehouse_base = self._warehouse_base
        warehouse_budget = self._warehouse_budget
        stock_base = self._stock_base
        stock_budget = self._stock_budget
        item_base = self._item_base
        item_rows = self._item_budget * ROWS_PER_PAGE
        orderline_base = self._orderline_base
        orderline_budget = self._orderline_budget
        for _ in range(self.transactions_per_job):
            customer = sample_customer()
            warehouse = warehouse_base + customer % warehouse_budget
            if rng_random() < new_order_weight:
                yield (compute_ns * (0.5 + rng_random()), warehouse, False)
                # District row: read-modify-write of next_o_id.
                yield (compute_ns * (0.5 + rng_random()), warehouse, True)
                yield (compute_ns * (0.5 + rng_random()),
                       self._customer_page(customer), False)
                for _ in range(items_per_order):
                    item = sample_item()
                    stock = stock_base + (item // ROWS_PER_PAGE) % stock_budget
                    yield (compute_ns * (0.5 + rng_random()),
                           item_base + (item % item_rows) // ROWS_PER_PAGE,
                           False)
                    yield (compute_ns * (0.5 + rng_random()), stock, False)
                    yield (compute_ns * (0.5 + rng_random()), stock, True)
                    # The order-line log is shared by all of this
                    # workload's jobs: advance its cursor per step.
                    cursor = self._orderline_cursor
                    self._orderline_cursor = cursor + 1
                    yield (compute_ns * (0.5 + rng_random()),
                           orderline_base
                           + (cursor // ROWS_PER_PAGE) % orderline_budget,
                           True)
            else:  # payment
                customer_page = self._customer_page(customer)
                yield (compute_ns * (0.5 + rng_random()), warehouse, True)
                yield (compute_ns * (0.5 + rng_random()), customer_page, False)
                yield (compute_ns * (0.5 + rng_random()), customer_page, True)
