#include "support/reader_threads.hpp"

namespace psaflow {

void ReaderThreads::join_all() {
    std::list<Reader> readers;
    {
        std::lock_guard lock(mu_);
        readers.swap(readers_);
    }
    for (Reader& reader : readers) reader.thread.join();
}

std::size_t ReaderThreads::retained() const {
    std::lock_guard lock(mu_);
    return readers_.size();
}

void ReaderThreads::reap_locked() {
    for (auto it = readers_.begin(); it != readers_.end();) {
        if (!it->done.load()) {
            ++it;
            continue;
        }
        it->thread.join(); // returns at once: the reader is exiting
        it = readers_.erase(it);
    }
}

} // namespace psaflow
