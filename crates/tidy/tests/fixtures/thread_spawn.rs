// Fixture: rule (c) `thread-spawn`.

pub fn bad_detached_worker() {
    let h = std::thread::spawn(|| 1 + 1);
    let _ = h.join();
}

pub fn scoped_threads_are_fine() {
    std::thread::scope(|s| {
        s.spawn(|| 2 + 2);
    });
}
