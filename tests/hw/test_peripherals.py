"""Unit tests for the peripheral device models."""

import pickle

import pytest

from repro.hw import HardFault, Machine, stm32479i_eval, stm32f4_discovery
from repro.hw.peripherals import (
    DCMI,
    DMA2D,
    EthernetMAC,
    GPIO,
    LTDC,
    RCC,
    SDCard,
    UART,
    USBMassStorage,
)


class FakeMachine:
    def __init__(self):
        self.cycles = 0

    def consume(self, n):
        self.cycles += n


class TestUART:
    def test_rx_pacing(self):
        uart = UART(cycles_per_byte=100)
        uart.machine = FakeMachine()
        uart.feed(b"ab")
        assert uart.mmio_read(UART.SR, 4) & UART.SR_RXNE
        assert uart.mmio_read(UART.DR, 4) == ord("a")
        # Next byte not ready until 100 cycles elapse.
        assert not uart.mmio_read(UART.SR, 4) & UART.SR_RXNE
        uart.machine.cycles = 100
        assert uart.mmio_read(UART.SR, 4) & UART.SR_RXNE
        assert uart.mmio_read(UART.DR, 4) == ord("b")

    def test_tx_captured(self):
        uart = UART()
        uart.mmio_write(UART.DR, 4, ord("X"))
        assert uart.transmitted() == b"X"

    def test_empty_poll_limit_faults(self):
        uart = UART()
        uart.machine = FakeMachine()
        with pytest.raises(HardFault):
            for _ in range(3_000_000):
                uart.mmio_read(UART.SR, 4)

    def test_txe_always_set(self):
        uart = UART()
        uart.machine = FakeMachine()
        assert uart.mmio_read(UART.SR, 4) & UART.SR_TXE


class TestGPIO:
    def test_bsrr_set_reset(self):
        gpio = GPIO()
        gpio.mmio_write(GPIO.BSRR, 4, 1 << 5)
        assert gpio.pin_is_high(5)
        gpio.mmio_write(GPIO.BSRR, 4, 1 << (5 + 16))
        assert not gpio.pin_is_high(5)

    def test_idr_host_controlled(self):
        gpio = GPIO()
        gpio.set_input(3, True)
        assert gpio.mmio_read(GPIO.IDR, 4) == 1 << 3
        gpio.set_input(3, False)
        assert gpio.mmio_read(GPIO.IDR, 4) == 0


class TestRCC:
    def test_ready_flags_read_as_set(self):
        rcc = RCC()
        assert rcc.mmio_read(RCC.CR, 4) & (1 << 17)
        assert rcc.mmio_read(RCC.CR, 4) & (1 << 25)

    def test_write_log(self):
        rcc = RCC()
        rcc.mmio_write(RCC.AHB1ENR, 4, 0xF)
        assert (RCC.AHB1ENR, 0xF) in rcc.write_log


class TestSDCard:
    def test_read_block_protocol(self):
        card = SDCard(image=b"\x11" * 512 + b"\x22" * 512)
        card.machine = FakeMachine()
        card.mmio_write(SDCard.ARG, 4, 1)
        card.mmio_write(SDCard.CMD, 4, SDCard.CMD_READ_BLOCK)
        words = [card.mmio_read(SDCard.FIFO, 4) for _ in range(128)]
        assert all(w == 0x22222222 for w in words)
        assert card.reads == 1
        assert card.machine.cycles == card.block_latency_cycles

    def test_write_block_commits_after_128_words(self):
        card = SDCard()
        card.machine = FakeMachine()
        card.mmio_write(SDCard.ARG, 4, 3)
        card.mmio_write(SDCard.CMD, 4, SDCard.CMD_WRITE_BLOCK)
        for _ in range(128):
            card.mmio_write(SDCard.FIFO, 4, 0xAABBCCDD)
        assert card.read_block_host(3) == b"\xDD\xCC\xBB\xAA" * 128
        assert card.writes == 1

    def test_status_always_ready(self):
        card = SDCard()
        assert card.mmio_read(SDCard.STA, 4) & SDCard.STA_CMDREND

    def test_fifo_drains_in_word_order(self):
        """Regression: the FIFO must pop from the front (oldest word
        first), not from the tail — each word of a block comes out in
        storage order."""
        blob = b"".join(i.to_bytes(4, "little") for i in range(128))
        card = SDCard(image=blob)
        card.machine = FakeMachine()
        card.mmio_write(SDCard.ARG, 4, 0)
        card.mmio_write(SDCard.CMD, 4, SDCard.CMD_READ_BLOCK)
        words = [card.mmio_read(SDCard.FIFO, 4) for _ in range(128)]
        assert words == list(range(128))
        assert card.mmio_read(SDCard.FIFO, 4) == 0  # drained

    def test_image_larger_than_capacity_is_refused(self):
        with pytest.raises(ValueError, match="exceeds"):
            SDCard(image=b"\x01" * (3 * 512), capacity_blocks=2)
        card = SDCard(image=b"\x01" * (2 * 512), capacity_blocks=2)
        assert len(card.image) == 2 * 512

    def test_write_past_capacity_is_dropped(self):
        """Regression: a CMD24 past the last block used to append its
        data to the image, growing the card."""
        card = SDCard(capacity_blocks=2)
        card.machine = FakeMachine()
        card.mmio_write(SDCard.ARG, 4, 5)
        card.mmio_write(SDCard.CMD, 4, SDCard.CMD_WRITE_BLOCK)
        for _ in range(128):
            card.mmio_write(SDCard.FIFO, 4, 0xAABBCCDD)
        assert card.writes == 0
        assert card.read_block_host(5) == bytes(512)
        assert len(card.image) <= 2 * 512
        # The card still accepts in-range writes afterwards.
        card.mmio_write(SDCard.ARG, 4, 1)
        card.mmio_write(SDCard.CMD, 4, SDCard.CMD_WRITE_BLOCK)
        for _ in range(128):
            card.mmio_write(SDCard.FIFO, 4, 0x11111111)
        assert card.read_block_host(1) == b"\x11" * 512
        assert len(card.image) == 2 * 512

    def test_unwritten_block_streams_zero_words(self):
        card = SDCard(image=b"\x11" * 512)
        card.machine = FakeMachine()
        card.mmio_write(SDCard.ARG, 4, 7)
        card.mmio_write(SDCard.CMD, 4, SDCard.CMD_READ_BLOCK)
        words = [card.mmio_read(SDCard.FIFO, 4) for _ in range(128)]
        assert words == [0] * 128
        assert card.read_block_host(7) == bytes(512)
        assert len(card.image) == 512

    def test_write_past_image_end_extends_and_reads_back(self):
        card = SDCard(image=b"\x11" * 600)
        card.machine = FakeMachine()
        card.mmio_write(SDCard.ARG, 4, 3)
        card.mmio_write(SDCard.CMD, 4, SDCard.CMD_WRITE_BLOCK)
        for _ in range(128):
            card.mmio_write(SDCard.FIFO, 4, 0x01020304)
        assert card.writes == 1
        assert len(card.image) == 4 * 512
        assert card.read_block_host(3) == b"\x04\x03\x02\x01" * 128
        assert card.read_block_host(1) == b"\x11" * 88 + bytes(424)
        assert card.read_block_host(2) == bytes(512)
        card.mmio_write(SDCard.ARG, 4, 3)
        card.mmio_write(SDCard.CMD, 4, SDCard.CMD_READ_BLOCK)
        words = [card.mmio_read(SDCard.FIFO, 4) for _ in range(128)]
        assert words == [0x01020304] * 128

    def test_pickles_sparse_and_identical(self):
        card = SDCard(image=b"\x07" * 512, capacity_blocks=4096)
        card.arg = 9
        restored = pickle.loads(pickle.dumps(card))
        assert len(pickle.dumps(card)) < 16 * 1024
        assert type(restored.image) is bytearray
        assert restored.image == card.image
        assert (restored.arg, restored.capacity_blocks) == (9, 4096)


class TestDisplay:
    def test_ltdc_counts_frames(self):
        ltdc = LTDC()
        ltdc.machine = FakeMachine()
        ltdc.mmio_write(LTDC.SRCR, 4, 1)
        ltdc.mmio_write(LTDC.SRCR, 4, 0)  # no reload bit: not counted
        assert ltdc.frames_shown == 1

    def test_dma2d_copies_and_bypasses_mpu(self):
        board = stm32479i_eval()
        machine = Machine(board)
        dma = machine.attach_device("DMA2D", DMA2D())
        src, dst = board.sram_base, board.sram_base + 0x100
        machine.write_bytes(src, b"\x01\x02\x03\x04" * 4)
        machine.enforcement.enabled = True  # no regions: CPU unpriv would fault
        machine.drop_privilege()
        base = board.peripheral("DMA2D").base
        with machine.privileged_mode():
            # Program registers directly (device-level test).
            dma.mmio_write(DMA2D.FGMAR, 4, src)
            dma.mmio_write(DMA2D.OMAR, 4, dst)
            dma.mmio_write(DMA2D.NLR, 4, (1 << 16) | 16)
            dma.mmio_write(DMA2D.CR, 4, 1)
        assert machine.read_bytes(dst, 16) == b"\x01\x02\x03\x04" * 4
        assert dma.mmio_read(DMA2D.ISR, 4) & DMA2D.ISR_TCIF


class TestNetwork:
    def test_rx_frame_stream_and_release(self):
        mac = EthernetMAC(frame_interval_cycles=10)
        mac.machine = FakeMachine()
        mac.enqueue_frame(b"ABCDEFGH")
        assert mac.mmio_read(EthernetMAC.RX_STAT, 4) == 1
        assert mac.mmio_read(EthernetMAC.RX_LEN, 4) == 8
        assert mac.mmio_read(EthernetMAC.RX_DATA, 4) == int.from_bytes(
            b"ABCD", "little")
        mac.mmio_write(EthernetMAC.RX_RELEASE, 4, 1)
        # Pacing: next frame hidden until the interval passes.
        mac.enqueue_frame(b"XY")
        assert mac.mmio_read(EthernetMAC.RX_STAT, 4) == 0
        mac.machine.cycles = 10
        assert mac.mmio_read(EthernetMAC.RX_STAT, 4) == 1

    def test_tx_frame_assembled(self):
        mac = EthernetMAC()
        mac.machine = FakeMachine()
        mac.mmio_write(EthernetMAC.TX_DATA, 4, int.from_bytes(b"ping", "little"))
        mac.mmio_write(EthernetMAC.TX_LEN, 4, 4)
        mac.mmio_write(EthernetMAC.TX_GO, 4, 1)
        assert mac.sent_frames() == [b"ping"]

    def test_dcmi_capture_fifo(self):
        dcmi = DCMI(capture_latency_cycles=5)
        dcmi.machine = FakeMachine()
        dcmi.set_frame(b"\x01\x00\x00\x00\x02\x00\x00\x00")
        dcmi.mmio_write(DCMI.CR, 4, DCMI.CR_CAPTURE)
        assert dcmi.machine.cycles == 5
        assert dcmi.mmio_read(DCMI.SR, 4) & DCMI.SR_FNE
        assert dcmi.mmio_read(DCMI.DR, 4) == 1
        assert dcmi.mmio_read(DCMI.DR, 4) == 2
        assert not dcmi.mmio_read(DCMI.SR, 4) & DCMI.SR_FNE

    def test_dcmi_fifo_drains_in_frame_order(self):
        """Regression: DR pops the oldest captured word first, so the
        drained stream reproduces the frame byte-for-byte."""
        dcmi = DCMI(capture_latency_cycles=0)
        dcmi.machine = FakeMachine()
        frame = b"".join(i.to_bytes(4, "little") for i in range(64))
        dcmi.set_frame(frame)
        dcmi.mmio_write(DCMI.CR, 4, DCMI.CR_CAPTURE)
        words = [dcmi.mmio_read(DCMI.DR, 4) for _ in range(64)]
        assert words == list(range(64))
        assert not dcmi.mmio_read(DCMI.SR, 4) & DCMI.SR_FNE


class TestUSB:
    def test_block_write_commits(self):
        usb = USBMassStorage()
        usb.machine = FakeMachine()
        usb.mmio_write(USBMassStorage.BLK, 4, 0)
        for i in range(128):
            usb.mmio_write(USBMassStorage.DATA, 4, i)
        assert 0 in usb.disk
        assert usb.disk[0][:4] == b"\x00\x00\x00\x00"
        assert usb.disk[0][4:8] == b"\x01\x00\x00\x00"
