/**
 * @file
 * Command-line VIP assembler: assemble a source file into the 64-bit
 * binary encoding, or disassemble a binary back to text.
 *
 *   vip-asm prog.s -o prog.bin        assemble
 *   vip-asm -d prog.bin               disassemble to stdout
 *   vip-asm -l prog.s                 print a listing (addr, word, asm)
 *
 * A malformed source or binary exits 1 with one message naming the
 * file (and, for source, the line).
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli.hh"
#include "isa/assembler.hh"
#include "isa/isa.hh"
#include "sim/error.hh"

using namespace vip;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "vip-asm: cannot open %s\n", path.c_str());
        std::exit(1);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

int
disassembleFile(const std::string &input)
{
    const auto prog = decodeProgram(readFile(input));
    for (std::size_t i = 0; i < prog.size(); ++i)
        std::printf("%4zu: %s\n", i, disassemble(prog[i]).c_str());
    return 0;
}

int
assembleFile(const std::string &input, const std::string &output,
             bool listing)
{
    const auto prog = assemble(readFile(input));
    std::fprintf(stderr, "%zu instructions (buffer holds %u)\n",
                 prog.size(), kInstBufferEntries);

    const std::string image = encodeProgram(prog);
    if (listing) {
        for (std::size_t i = 0; i < prog.size(); ++i) {
            std::printf("%4zu: %016llx  %s\n", i,
                        static_cast<unsigned long long>(encode(prog[i])),
                        disassemble(prog[i]).c_str());
            if (prog[i].op == Opcode::MovImm &&
                !immFitsEncoding(prog[i].imm)) {
                std::printf("      %016llx  ; literal\n",
                            static_cast<unsigned long long>(prog[i].imm));
            }
        }
    }
    if (!output.empty()) {
        std::ofstream out(output, std::ios::binary);
        out.write(image.data(), static_cast<std::streamsize>(image.size()));
        out.close();
        if (!out) {
            std::fprintf(stderr, "vip-asm: cannot write %s\n",
                         output.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote %zu words to %s\n", image.size() / 8,
                     output.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool disasm = false, listing = false;
    std::string input, output;
    const cli::Row file = cli::text(
        "<file>", nullptr, "assembly source, or a binary with -d", input);
    cli::parse(argc, argv, "<prog.s> [-o prog.bin] | -l <prog.s> | "
                           "-d <prog.bin>",
               {cli::text("-o", "FILE", "write the binary image to FILE",
                          output),
                cli::toggle("-l", "print a listing (addr, word, asm)",
                            listing),
                cli::toggle("-d", "disassemble a binary to stdout",
                            disasm)},
               &file);
    if (input.empty())
        cli::fail(argv[0], "no input file (see --help)");

    try {
        return disasm ? disassembleFile(input)
                      : assembleFile(input, output, listing);
    } catch (const AssemblyFailure &e) {
        std::fprintf(stderr, "%s:%u: error: %s\n", input.c_str(),
                     e.line(), e.reason().c_str());
    } catch (...) {
        std::fprintf(stderr, "vip-asm: %s: %s\n", input.c_str(),
                     currentError().what());
    }
    return 1;
}
