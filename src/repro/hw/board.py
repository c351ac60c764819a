"""Board profiles: memory sizes and the peripheral address map.

The peripheral map is the "SoC datasheet" the OPEC compiler consults
when identifying peripheral accesses by constant address (§4.2).  Two
profiles mirror the paper's boards: STM32F4-Discovery (1 MB flash /
192 KB SRAM) and STM32479I-EVAL (2 MB flash / 288 KB SRAM), both
Cortex-M4 class.  Addresses follow the STM32F4 reference manual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

PPB_BASE = 0xE0000000
PPB_END = 0xE0100000


@dataclass(frozen=True)
class Peripheral:
    """One memory-mapped peripheral window.

    ``core=True`` marks Private Peripheral Bus devices (SysTick, DWT,
    SCB/MPU) that only privileged code may touch (§2.1) — OPEC emulates
    unprivileged access to them instead of lifting code to privileged
    level (§5.2).
    """

    name: str
    base: int
    size: int
    core: bool = False

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


# Core (PPB) peripherals are identical on every ARMv7-M part.
CORE_PERIPHERALS = (
    Peripheral("DWT", 0xE0001000, 0x1000, core=True),
    Peripheral("SysTick", 0xE000E010, 0x10, core=True),
    Peripheral("NVIC", 0xE000E100, 0x400, core=True),
    Peripheral("SCB", 0xE000ED00, 0x90, core=True),
    Peripheral("MPU", 0xE000ED90, 0x40, core=True),
)


@dataclass
class Board:
    """A development board: memories plus its peripheral map."""

    name: str
    flash_base: int
    flash_size: int
    sram_base: int
    sram_size: int
    peripherals: dict[str, Peripheral] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for core in CORE_PERIPHERALS:
            self.peripherals.setdefault(core.name, core)

    def add_peripheral(self, peripheral: Peripheral) -> Peripheral:
        self.peripherals[peripheral.name] = peripheral
        return peripheral

    def peripheral(self, name: str) -> Peripheral:
        return self.peripherals[name]

    def peripheral_at(self, address: int) -> Optional[Peripheral]:
        for peripheral in self.peripherals.values():
            if peripheral.contains(address):
                return peripheral
        return None

    def core_peripherals(self) -> list[Peripheral]:
        return [p for p in self.peripherals.values() if p.core]


def _stm32_common() -> dict[str, Peripheral]:
    table = [
        ("TIM2", 0x40000000, 0x400),
        ("TIM3", 0x40000400, 0x400),
        ("USART2", 0x40004400, 0x400),
        ("I2C1", 0x40005400, 0x400),
        ("PWR", 0x40007000, 0x400),
        ("USART1", 0x40011000, 0x400),
        ("SDIO", 0x40012C00, 0x400),
        ("SYSCFG", 0x40013800, 0x400),
        ("EXTI", 0x40013C00, 0x400),
        ("GPIOA", 0x40020000, 0x400),
        ("GPIOB", 0x40020400, 0x400),
        ("GPIOC", 0x40020800, 0x400),
        ("GPIOD", 0x40020C00, 0x400),
        ("GPIOE", 0x40021000, 0x400),
        ("CRC", 0x40023000, 0x400),
        ("RCC", 0x40023800, 0x400),
        ("FLASH_IF", 0x40023C00, 0x400),
        ("DMA1", 0x40026000, 0x400),
        ("DMA2", 0x40026400, 0x400),
    ]
    return {name: Peripheral(name, base, size) for name, base, size in table}


def stm32f4_discovery() -> Board:
    """STM32F4-Discovery: 1 MB flash, 192 KB SRAM (paper §6)."""
    return Board(
        name="STM32F4-Discovery",
        flash_base=0x08000000,
        flash_size=1024 * 1024,
        sram_base=0x20000000,
        sram_size=192 * 1024,
        peripherals=_stm32_common(),
    )


def stm32479i_eval() -> Board:
    """STM32479I-EVAL: 2 MB flash, 288 KB SRAM, rich peripherals (§6)."""
    peripherals = _stm32_common()
    extra = [
        ("LTDC", 0x40016800, 0x400),
        ("ETH", 0x40028000, 0x1400),
        ("DMA2D", 0x4002B000, 0x800),
        ("USB_OTG", 0x50000000, 0x40000),
        ("DCMI", 0x50050000, 0x400),
    ]
    for name, base, size in extra:
        peripherals[name] = Peripheral(name, base, size)
    return Board(
        name="STM32479I-EVAL",
        flash_base=0x08000000,
        flash_size=2 * 1024 * 1024,
        sram_base=0x20000000,
        sram_size=288 * 1024,
        peripherals=peripherals,
    )
